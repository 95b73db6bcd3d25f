//! k-multiparty compatibility (k-MC) — the global verification baseline
//! [Lange & Yoshida, CAV'19] used by Rumpsteak's bottom-up workflow
//! (paper §2.2) and benchmarked against the subtyping algorithm in Fig 7.
//!
//! A *system* is one communicating FSM per participant, exchanging messages
//! over FIFO channels (one per ordered pair of participants). k-MC explores
//! every configuration reachable when channels hold at most `k` pending
//! messages and reports:
//!
//! * **deadlocks** — a non-final configuration with no enabled transition,
//! * **reception errors** — a machine committed to receiving from `p` whose
//!   incoming channel head from `p` matches none of its expected labels,
//! * **orphan messages** — a channel is non-empty and the machine it leads
//!   to has terminated, so its contents can never be received,
//! * **k-exhaustivity** — whether some send was ever disabled by a full
//!   channel (if so, the verdict is only conclusive up to bound `k`).
//!
//! Exploration is a breadth-first search over the global configuration
//! graph, which grows exponentially with the number of participants and
//! with `k` — exactly the scaling the paper demonstrates in Fig 7.
//!
//! # How configurations are stored
//!
//! The search never builds a [`Config`]. A configuration is one
//! variable-length record of words:
//!
//! ```text
//! [ state of machine 0 .. n-1 | length of queue 0 .. c-1 | labels of queue 0 | labels of queue 1 | .. ]
//! ```
//!
//! Only the `c` channels some machine sends on get a queue, in
//! `from * n + to` order; a channel nobody sends on stays empty forever
//! and costs no word. A queued label is its label index (below), oldest
//! first. Empty queues cost one length word whatever `k` is, and equal
//! configurations are equal word for word, so hashing and comparing a
//! configuration is hashing and comparing a slice.
//!
//! **The word width is chosen once per [`check`].** A word holds a state
//! index, a label index or a queue length, and no queue is longer than
//! `k`. When every state index and every label index fit in 16 bits and
//! so does `k`, records are `u16` words; otherwise they are `u32` words.
//! Both widths run one generic explorer. Values are narrowed only by
//! checked conversions: a truncating cast would make two configurations
//! one record, and the second would read as already explored.
//!
//! **The machines are compiled once, by [`System::new`].** [`Name::id`]s
//! are process-wide and keep growing, so the system numbers its own labels
//! densely, in order of first appearance, and a queue holds those label
//! indices. Beside each [`Fsm`]'s rows the system keeps one step per row:
//! send or receive, the queue the row appends to or takes the head of
//! (from a `from * n + to → queue` table built there too), the label
//! index and the target state. For every state it also records where a
//! reception error could show: nowhere when the state sends or has no
//! rows, at the one inbound queue when every row receives from the same
//! peer, or at several queues when the rows receive from mixed peers. The
//! explorer reads steps and these tables only; it never hashes a name,
//! searches the role list or scans a state's actions to classify it.
//!
//! **The arena is the breadth-first queue.** Records are appended to one
//! `Vec` of words in the order they are discovered and never move or
//! change; record `id` is the `id`-th record appended, and a `u32` per
//! record says where it starts. A cursor walks the record ids from 0:
//! everything before it has been expanded, everything from it on is the
//! FIFO frontier, so discovery order *is* breadth-first order and the
//! first violation found is the one a `VecDeque` of configurations would
//! find. Each successor is assembled in one reused scratch buffer and
//! copied into the arena only if it is new.
//!
//! **The visited set** is an open-addressing table (linear probing, a
//! power-of-two number of slots, at most 2^32) of `u64` slots. A slot
//! holds a record id in its low 32 bits and the top 32 bits of the
//! record's 64-bit hash, its tag, above them, so a probe reads one word.
//! Its invariants: at most half the slots are occupied, so a probe always
//! ends at a free slot; the first slot probed for a record is given by the
//! top bits of its hash, which the tag keeps, so growth re-places entries
//! from their tags without reading the arena; ids never change once handed
//! out, so doubling the table moves slots, not records. A lookup compares
//! the arena slice only when the tag matches. The hash takes the record
//! packed into `u64`s, four `u16` words or two `u32` words a multiply.
//!
//! **Violations are looked for per state.** Each machine's reception
//! error is looked for right after its steps fire. A machine committed to
//! receiving from one peer has one exactly when its queue from that peer
//! is non-empty and none of its steps fired, so that costs one length
//! word; a state receiving from mixed peers tests the head of each
//! inbound queue against its labels. Checking machine by machine finds
//! the error a scan after all of them would: the lowest machine's, in
//! the same configuration. Orphans are looked for only when some machine
//! is terminal, reading each queue's receiver from a table.
//! [`Config`]s are materialised only for the one configuration a
//! [`Violation`] carries.

use std::collections::{HashMap, VecDeque};
use std::fmt;

use theory::fsm::{Direction, Fsm, StateIndex};
use theory::name::Name;

/// A communicating system: one FSM per participant.
///
/// Every machine must have a state, machine roles must be pairwise
/// distinct, and every action's peer must name another machine in the
/// system.
#[derive(Clone, Debug)]
pub struct System {
    machines: Vec<Fsm>,
    /// The machines' roles, in machine order.
    roles: Vec<Name>,
    /// Every label of the system, once, in order of first appearance; a
    /// queued label is its index here.
    labels: Vec<Name>,
    /// Per machine, its rows as the explorer reads them, indexed like
    /// [`Fsm::rows`].
    steps: Vec<Vec<Step>>,
    /// Per machine, its states, indexed by state.
    states: Vec<Vec<State>>,
    /// Queue → its channel `from * n + to`: only the channels some
    /// machine sends on get a queue, in ascending order.
    channels: Vec<usize>,
    /// Queue → the machine index it leads to.
    receivers: Vec<usize>,
    /// The largest state index or label index, which every word must hold.
    widest: usize,
}

/// One row of a machine, compiled against its [`System`].
#[derive(Clone, Copy, Debug)]
struct Step {
    send: bool,
    /// The queue a send appends to or a receive takes the head of;
    /// [`NO_QUEUE`] for a receive on a channel nobody sends on.
    queue: u32,
    /// Index into [`System::labels`].
    label: u32,
    target: u32,
}

/// A state of a machine, compiled against its [`System`].
#[derive(Clone, Copy, Debug)]
struct State {
    /// The state's steps are `steps[start..end]` of its machine.
    start: u32,
    end: u32,
    /// Where a reception error can show: the one queue the state receives
    /// on, [`NOT_RECEIVING`] or [`MIXED_PEERS`].
    inbound: u32,
}

/// The queue of a channel no machine sends on: it has none, and stays
/// empty forever.
const NO_QUEUE: u32 = u32::MAX;
/// In [`State::inbound`]: the state sends, has no rows, or receives only
/// on channels without a queue, so it has no reception error.
const NOT_RECEIVING: u32 = u32::MAX;
/// In [`State::inbound`]: the state receives from several peers.
const MIXED_PEERS: u32 = u32::MAX - 1;

/// Errors constructing a [`System`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SystemError {
    /// Two machines share a role name.
    DuplicateRole(Name),
    /// A machine has no states, so it has no initial state.
    NoStates(Name),
    /// An action references a participant with no machine.
    UnknownPeer { role: Name, peer: Name },
}

impl fmt::Display for SystemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SystemError::DuplicateRole(role) => write!(f, "duplicate role {role}"),
            SystemError::NoStates(role) => write!(f, "machine {role} has no states"),
            SystemError::UnknownPeer { role, peer } => {
                write!(f, "machine {role} references unknown peer {peer}")
            }
        }
    }
}

impl std::error::Error for SystemError {}

impl System {
    /// Builds a system from per-participant machines.
    pub fn new(machines: Vec<Fsm>) -> Result<Self, SystemError> {
        let roles: Vec<Name> = machines.iter().map(|machine| machine.role).collect();
        for (index, role) in roles.iter().enumerate() {
            if roles[..index].contains(role) {
                return Err(SystemError::DuplicateRole(*role));
            }
        }
        let n = machines.len();
        // Each row's peer as a machine index, and each channel some
        // machine sends on.
        let mut peers = Vec::with_capacity(n);
        let mut queues = vec![NO_QUEUE; n * n];
        for (index, machine) in machines.iter().enumerate() {
            if machine.is_empty() {
                return Err(SystemError::NoStates(machine.role));
            }
            let mut indices = Vec::with_capacity(machine.rows().len());
            for (action, _) in machine.rows() {
                let Some(peer) = roles.iter().position(|role| *role == action.peer) else {
                    return Err(SystemError::UnknownPeer {
                        role: machine.role,
                        peer: action.peer,
                    });
                };
                if action.direction == Direction::Send {
                    queues[index * n + peer] = 0;
                }
                indices.push(peer);
            }
            peers.push(indices);
        }
        let channels: Vec<usize> = (0..queues.len())
            .filter(|&channel| queues[channel] != NO_QUEUE)
            .collect();
        for (queue, &channel) in channels.iter().enumerate() {
            queues[channel] = index_u32(queue);
        }
        let receivers = channels.iter().map(|&channel| channel % n).collect();

        let mut labels = Vec::new();
        let mut label_index = HashMap::new();
        let mut steps = Vec::with_capacity(n);
        let mut states = Vec::with_capacity(n);
        for (index, (machine, peers)) in machines.iter().zip(&peers).enumerate() {
            let machine_steps: Vec<Step> = machine
                .rows()
                .iter()
                .zip(peers)
                .map(|((action, target), &peer)| {
                    let send = action.direction == Direction::Send;
                    let channel = if send {
                        index * n + peer
                    } else {
                        peer * n + index
                    };
                    let label = *label_index.entry(action.label).or_insert_with(|| {
                        labels.push(action.label);
                        index_u32(labels.len() - 1)
                    });
                    Step {
                        send,
                        queue: queues[channel],
                        label,
                        target: index_u32(target.0),
                    }
                })
                .collect();
            states.push(
                machine
                    .states()
                    .map(|state| {
                        let rows = machine.row_range(state);
                        State {
                            start: index_u32(rows.start),
                            end: index_u32(rows.end),
                            inbound: inbound_queue(&machine_steps[rows]),
                        }
                    })
                    .collect(),
            );
            steps.push(machine_steps);
        }
        let widest = machines
            .iter()
            .map(|machine| machine.len() - 1)
            .chain(labels.len().checked_sub(1))
            .max()
            .unwrap_or(0);
        Ok(Self {
            machines,
            roles,
            labels,
            steps,
            states,
            channels,
            receivers,
            widest,
        })
    }

    /// The machines in the system.
    pub fn machines(&self) -> &[Fsm] {
        &self.machines
    }

    /// Participant names, indexed like [`Self::machines`]. Channel
    /// `roles()[i] → roles()[j]` lives at index `i * n + j` in a
    /// [`Config`]'s channel vector and in [`Report::max_depths`].
    pub fn roles(&self) -> &[Name] {
        &self.roles
    }
}

/// `value` as a `u32`; states and rows of an [`Fsm`] always fit.
fn index_u32(value: usize) -> u32 {
    u32::try_from(value).expect("fewer than 2^32 states, rows and labels")
}

/// Where a state with `steps` can show a reception error: its
/// [`State::inbound`].
fn inbound_queue(steps: &[Step]) -> u32 {
    if steps.is_empty() || steps.iter().any(|step| step.send) {
        return NOT_RECEIVING;
    }
    // Receives on a channel nobody sends on never find a head.
    let mut inbound = steps
        .iter()
        .map(|step| step.queue)
        .filter(|&q| q != NO_QUEUE);
    let Some(first) = inbound.next() else {
        return NOT_RECEIVING;
    };
    // The queue of a receive names its peer, so one queue is one peer.
    if inbound.all(|queue| queue == first) {
        first
    } else {
        MIXED_PEERS
    }
}

/// A global configuration: one state per machine plus all channel contents.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Config {
    /// Current state of each machine, indexed like `System::machines`.
    pub states: Vec<StateIndex>,
    /// FIFO contents of channel `from → to` at `from * n + to`, oldest
    /// first.
    pub channels: Vec<VecDeque<Name>>,
}

/// A violation of k-multiparty compatibility.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// No transition is enabled but the system has not terminated.
    Deadlock(Config),
    /// `role` can only receive from `peer`, whose next message `found` is
    /// not among the expected labels.
    ReceptionError {
        /// The offending configuration.
        config: Config,
        /// The machine that cannot proceed.
        role: Name,
        /// The peer whose message is unexpected.
        peer: Name,
        /// The unexpected label at the head of the channel.
        found: Name,
    },
    /// A message is queued towards a machine that has terminated, so it
    /// can never be received.
    OrphanMessages(Config),
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Deadlock(_) => f.write_str("deadlock: no machine can make progress"),
            Violation::ReceptionError {
                role, peer, found, ..
            } => write!(
                f,
                "reception error: {role} cannot receive {found} from {peer}"
            ),
            Violation::OrphanMessages(_) => {
                f.write_str("orphan messages: queued towards a terminated machine")
            }
        }
    }
}

impl std::error::Error for Violation {}

/// Statistics of a successful k-MC run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Report {
    /// Number of distinct configurations explored.
    pub configurations: usize,
    /// Number of transitions fired during exploration.
    pub transitions: usize,
    /// False if some send was disabled by a full channel: the verdict is
    /// then only conclusive for executions that stay within bound `k`.
    pub exhaustive: bool,
    /// Maximum queue depth each channel reached during exploration,
    /// indexed `from * n + to` like [`Config::channels`]. When
    /// [`Self::exhaustive`] is true these are *tight static bounds*: no
    /// execution of the system can ever hold more messages in flight on
    /// that channel, so a runtime observing `depth > max_depths[c]`
    /// has witnessed a verification bug.
    pub max_depths: Vec<usize>,
}

impl Report {
    /// The channels that ever carried a message, as
    /// `(from, to, max_depth)` triples resolved against `system` (which
    /// must be the system this report was produced from).
    pub fn channel_bounds(&self, system: &System) -> Vec<(Name, Name, usize)> {
        let n = system.roles.len();
        assert_eq!(self.max_depths.len(), n * n, "report/system mismatch");
        let mut bounds = Vec::new();
        for (index, &depth) in self.max_depths.iter().enumerate() {
            if depth > 0 {
                bounds.push((system.roles[index / n], system.roles[index % n], depth));
            }
        }
        bounds
    }
}

/// A record word: `u16` or `u32`, chosen per [`check`].
trait Word: Copy + Eq + Into<u32> + TryFrom<u32> {
    /// The word's width in bits.
    const BITS: u32;
}

impl Word for u16 {
    const BITS: u32 = u16::BITS;
}

impl Word for u32 {
    const BITS: u32 = u32::BITS;
}

/// `value` as a `W`. [`check`] picks a width that holds every state, label
/// and queue length, so this never fails; it is checked anyway, because a
/// truncated word would alias two records.
fn word<W: Word>(value: u32) -> W {
    W::try_from(value)
        .ok()
        .expect("the record width holds every state, label and queue length")
}

/// `word` as an index.
fn unword<W: Word>(word: W) -> usize {
    word.into() as usize
}

/// A free slot of [`Explored::slots`]: no record id is `u32::MAX`.
const EMPTY: u64 = u64::MAX;
/// The tag half of a slot.
const TAG: u64 = 0xFFFF_FFFF_0000_0000;

/// Every configuration discovered so far: the arena of packed records,
/// which is also the breadth-first queue, and the visited table over it
/// (layout and invariants in the module docs).
struct Explored<W> {
    /// The records, back to back in discovery order.
    words: Vec<W>,
    /// Record `id` is `words[starts[id]..starts[id + 1]]`.
    starts: Vec<u32>,
    /// Open-addressing table: `tag | id` per slot, or [`EMPTY`].
    slots: Vec<u64>,
}

impl<W: Word> Explored<W> {
    fn new() -> Self {
        const SLOTS: usize = 64;
        Self {
            words: Vec::new(),
            starts: vec![0],
            slots: vec![EMPTY; SLOTS],
        }
    }

    /// Number of records.
    fn len(&self) -> usize {
        self.starts.len() - 1
    }

    fn record(&self, id: usize) -> &[W] {
        &self.words[self.starts[id] as usize..self.starts[id + 1] as usize]
    }

    /// Multiplicative hash over the record packed into `u64`s, so a
    /// `u16` record takes one multiply per four words. The multiplier
    /// pushes every input bit towards the top, which is where the tag and
    /// [`Self::home`] read.
    fn hash(record: &[W]) -> u64 {
        let pack = |words: &[W]| {
            words.iter().fold(0u64, |packed, &word| {
                packed << W::BITS | u64::from(word.into())
            })
        };
        let mix = |hash: u64, packed: u64| {
            (hash.rotate_left(5) ^ packed).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        };
        let chunks = record.chunks_exact((u64::BITS / W::BITS) as usize);
        let rest = pack(chunks.remainder());
        mix(chunks.map(pack).fold(0, mix), rest)
    }

    /// First slot probed for a record tagged `tag`: the tag's top
    /// `log2(slots)` bits.
    fn home(&self, tag: u64) -> usize {
        (tag >> (u64::BITS - self.slots.len().trailing_zeros())) as usize
    }

    /// Appends `record` unless an equal one is already there.
    fn insert(&mut self, record: &[W]) {
        if (self.len() + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let tag = Self::hash(record) & TAG;
        let mask = self.slots.len() - 1;
        let mut slot = self.home(tag);
        while self.slots[slot] != EMPTY {
            let entry = self.slots[slot];
            if entry & TAG == tag && self.record((entry & !TAG) as usize) == record {
                return;
            }
            slot = (slot + 1) & mask;
        }
        // The table holds at most 2^31 records (see `grow`), so an id
        // never reaches `u32::MAX`, and a slot is never EMPTY.
        self.slots[slot] = tag | u64::from(index_u32(self.len()));
        self.words.extend_from_slice(record);
        self.starts
            .push(u32::try_from(self.words.len()).expect("k-MC: the arena exceeds 2^32 words"));
    }

    /// Doubles the table, re-placing every entry from its tag.
    fn grow(&mut self) {
        // A home is read from the tag's 32 bits, so 2^32 slots is the most
        // a table can address.
        assert!(
            self.slots.len().trailing_zeros() < u32::BITS,
            "k-MC: exploration exceeds 2^31 configurations"
        );
        let slots = self.slots.len() * 2;
        let old = std::mem::replace(&mut self.slots, vec![EMPTY; slots]);
        for entry in old {
            if entry == EMPTY {
                continue;
            }
            let mut slot = self.home(entry & TAG);
            while self.slots[slot] != EMPTY {
                slot = (slot + 1) & (slots - 1);
            }
            self.slots[slot] = entry;
        }
    }
}

/// Unpacks a record of `system` into the [`Config`] a [`Violation`]
/// carries.
fn materialise<W: Word>(system: &System, record: &[W]) -> Config {
    let machine_count = system.machines.len();
    let (states, rest) = record.split_at(machine_count);
    let (lens, mut labels) = rest.split_at(system.channels.len());
    let mut queues = vec![VecDeque::new(); machine_count * machine_count];
    for (&channel, &len) in system.channels.iter().zip(lens) {
        let (queue, later) = labels.split_at(unword(len));
        queues[channel] = queue
            .iter()
            .map(|&label| system.labels[unword(label)])
            .collect();
        labels = later;
    }
    Config {
        states: states.iter().map(|&s| StateIndex(unword(s))).collect(),
        channels: queues,
    }
}

/// Runs the k-MC check with channel bound `k` (`k ≥ 1`).
pub fn check(system: &System, k: usize) -> Result<Report, Violation> {
    // Queue lengths are record words. No queue can hold 2^32 messages, so
    // clamping a larger bound changes no verdict.
    let k = u32::try_from(k.max(1)).unwrap_or(u32::MAX);
    if u16::try_from(k).is_ok() && u16::try_from(system.widest).is_ok() {
        explore::<u16>(system, k)
    } else {
        explore::<u32>(system, k)
    }
}

/// [`check`] on records of `W` words; `k` fits a `W`.
fn explore<W: Word>(system: &System, k: u32) -> Result<Report, Violation> {
    let machines = &system.machines;
    let machine_count = machines.len();
    // Words before the first queued label: the states, then the lengths.
    let fixed = machine_count + system.channels.len();

    let mut scratch: Vec<W> = machines
        .iter()
        .map(|machine| word(index_u32(machine.initial().0)))
        .collect();
    scratch.resize(fixed, word(0));
    let mut explored = Explored::new();
    explored.insert(&scratch);

    let mut transitions = 0usize;
    let mut exhaustive = true;
    let mut max_depths = vec![0usize; machine_count * machine_count];

    // The configuration being expanded, copied out of the arena so that
    // successors can be appended to it meanwhile, and where in that copy
    // each queue's oldest label sits.
    let mut current: Vec<W> = Vec::new();
    let mut heads = vec![0usize; system.channels.len()];
    // Each machine's state in the configuration being expanded.
    let mut current_states: Vec<State> = Vec::with_capacity(machine_count);

    let mut cursor = 0;
    while cursor < explored.len() {
        current.clear();
        current.extend_from_slice(explored.record(cursor));
        cursor += 1;
        let (states, lens) = current[..fixed].split_at(machine_count);
        let mut next_head = fixed;
        for (head, &len) in heads.iter_mut().zip(lens) {
            *head = next_head;
            next_head += unword(len);
        }
        current_states.clear();
        current_states
            .extend((system.states.iter().zip(states)).map(|(table, &state)| table[unword(state)]));
        let config = || materialise(system, &current);

        // A step fired in this configuration, or in this machine, exactly
        // when `transitions` has moved past these.
        let before_config = transitions;
        for (index, (state, steps)) in current_states.iter().zip(&system.steps).enumerate() {
            let before_machine = transitions;
            for step in &steps[state.start as usize..state.end as usize] {
                let queue = step.queue as usize;
                scratch.clear();
                if step.send {
                    let len = lens[queue].into();
                    if len >= k {
                        exhaustive = false;
                        continue;
                    }
                    let end = heads[queue] + len as usize;
                    scratch.extend_from_slice(&current[..end]);
                    scratch.push(word(step.label));
                    scratch.extend_from_slice(&current[end..]);
                    scratch[machine_count + queue] = word(len + 1);
                    let depth = &mut max_depths[system.channels[queue]];
                    *depth = (*depth).max(len as usize + 1);
                } else {
                    // A channel without a queue is empty forever.
                    if step.queue == NO_QUEUE {
                        continue;
                    }
                    let (head, len) = (heads[queue], lens[queue].into());
                    if len == 0 || current[head].into() != step.label {
                        continue;
                    }
                    scratch.extend_from_slice(&current[..head]);
                    scratch.extend_from_slice(&current[head + 1..]);
                    scratch[machine_count + queue] = word(len - 1);
                }
                scratch[index] = word(step.target);
                transitions += 1;
                explored.insert(&scratch);
            }

            // Reception errors: a machine committed to receiving whose
            // queue head is unexpected (why here, in the module docs).
            let nonempty = |queue: u32| lens[queue as usize].into() > 0;
            let unexpected = match state.inbound {
                NOT_RECEIVING => None,
                // Every step receives, from the one peer: none fired exactly
                // when the head is none of their labels.
                queue if queue != MIXED_PEERS => {
                    (transitions == before_machine && nonempty(queue)).then_some(queue)
                }
                _ => {
                    let steps = &steps[state.start as usize..state.end as usize];
                    let head = |queue: u32| current[heads[queue as usize]].into();
                    let receives = |queue: u32, label: u32| {
                        steps
                            .iter()
                            .any(|step| step.queue == queue && step.label == label)
                    };
                    steps
                        .iter()
                        .map(|step| step.queue)
                        .filter(|&queue| queue != NO_QUEUE && nonempty(queue))
                        .find(|&queue| !receives(queue, head(queue)))
                }
            };
            if let Some(queue) = unexpected {
                let queue = queue as usize;
                return Err(Violation::ReceptionError {
                    role: system.roles[index],
                    peer: system.roles[system.channels[queue] / machine_count],
                    found: system.labels[unword(current[heads[queue]])],
                    config: config(),
                });
            }
        }

        // Orphans: a terminated machine receives nothing, so whatever is
        // queued towards it stays queued in every successor.
        let terminal = |state: &State| state.start == state.end;
        if current_states.iter().any(terminal) {
            let orphaned = lens
                .iter()
                .zip(&system.receivers)
                .any(|(&len, &to)| len.into() > 0 && terminal(&current_states[to]));
            if orphaned {
                return Err(Violation::OrphanMessages(config()));
            }
        }
        if transitions == before_config && !current_states.iter().all(terminal) {
            return Err(Violation::Deadlock(config()));
        }
    }

    Ok(Report {
        configurations: explored.len(),
        transitions,
        exhaustive,
        max_depths,
    })
}

/// Builds a system from `(role, local type text)` pairs; test/bench helper.
pub fn system_from_locals(specs: &[(&str, &str)]) -> Result<System, Box<dyn std::error::Error>> {
    let mut machines = Vec::with_capacity(specs.len());
    for (role, text) in specs {
        let local = theory::local::parse(text)?;
        machines.push(theory::fsm::from_local(&Name::from(*role), &local)?);
    }
    Ok(System::new(machines)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_party_ping_pong_is_safe() {
        let system =
            system_from_locals(&[("a", "b!ping.b?pong.end"), ("b", "a?ping.a!pong.end")]).unwrap();
        let report = check(&system, 1).unwrap();
        assert!(report.exhaustive);
        assert!(report.configurations >= 4);
    }

    #[test]
    fn example2_deadlock_detected() {
        // Both participants reordered to receive first: classic deadlock
        // (paper Example 2, unsafe direction).
        let system = system_from_locals(&[("p", "q?l2.q!l1.end"), ("q", "p?l1.p!l2.end")]).unwrap();
        assert!(matches!(check(&system, 2), Err(Violation::Deadlock(_))));
    }

    #[test]
    fn example2_safe_reorder_passes() {
        // Only q reordered (send first): safe.
        let system = system_from_locals(&[("p", "q!l1.q?l2.end"), ("q", "p!l2.p?l1.end")]).unwrap();
        check(&system, 2).unwrap();
    }

    #[test]
    fn reception_error_detected() {
        let system = system_from_locals(&[("a", "b!oops.end"), ("b", "a?expected.end")]).unwrap();
        assert!(matches!(
            check(&system, 1),
            Err(Violation::ReceptionError { .. })
        ));
    }

    #[test]
    fn orphan_message_detected() {
        let system = system_from_locals(&[("a", "b!extra.end"), ("b", "end")]).unwrap();
        assert!(matches!(
            check(&system, 1),
            Err(Violation::OrphanMessages(_))
        ));
    }

    #[test]
    fn message_towards_a_terminated_machine_is_an_orphan() {
        // `x` is stranded the moment it is sent — `b` has nothing left to
        // do — yet `a` and `c` loop forever, so no configuration is final.
        let system = system_from_locals(&[
            ("a", "b!x . rec t . c!y . c?z . t"),
            ("b", "end"),
            ("c", "rec t . a?y . a!z . t"),
        ])
        .unwrap();
        let Err(Violation::OrphanMessages(config)) = check(&system, 1) else {
            panic!("stranded message not reported");
        };
        let a_to_b = &config.channels[1];
        assert_eq!(a_to_b.len(), 1);
        assert_eq!(a_to_b[0].as_str(), "x");
    }

    #[test]
    fn streaming_protocol_is_safe() {
        let system = system_from_locals(&[
            ("s", "rec x . t?ready . +{ t!value.x, t!stop.end }"),
            ("t", "rec x . s!ready . &{ s?value.x, s?stop.end }"),
        ])
        .unwrap();
        check(&system, 1).unwrap();
    }

    #[test]
    fn double_buffering_with_optimised_kernel_is_safe() {
        let system = system_from_locals(&[
            ("s", "rec x . k?ready . k!value . x"),
            (
                "k",
                "s!ready . rec x . s!ready . s?value . t?ready . t!value . x",
            ),
            ("t", "rec x . k!ready . k?value . x"),
        ])
        .unwrap();
        let report = check(&system, 2).unwrap();
        assert!(report.configurations > 4);
    }

    #[test]
    fn nonexhaustive_flagged_when_buffer_too_small() {
        // The optimised kernel needs 2 slots towards the source; k = 1
        // cannot certify it.
        let system = system_from_locals(&[
            ("s", "rec x . k?ready . k!value . x"),
            (
                "k",
                "s!ready . rec x . s!ready . s?value . t?ready . t!value . x",
            ),
            ("t", "rec x . k!ready . k?value . x"),
        ])
        .unwrap();
        let report = check(&system, 1).unwrap();
        assert!(!report.exhaustive);
    }

    #[test]
    fn ring_of_three_is_safe() {
        let system = system_from_locals(&[
            ("a", "rec x . b!v . c?v . x"),
            ("b", "rec x . a?v . c!v . x"),
            ("c", "rec x . b?v . a!v . x"),
        ])
        .unwrap();
        check(&system, 1).unwrap();
    }

    #[test]
    fn max_depths_reports_tight_channel_bounds() {
        // Ping-pong alternates strictly: no channel ever holds more than
        // one message even with a generous bound.
        let system =
            system_from_locals(&[("a", "b!ping.b?pong.end"), ("b", "a?ping.a!pong.end")]).unwrap();
        let report = check(&system, 4).unwrap();
        assert!(report.exhaustive);
        let bounds = report.channel_bounds(&system);
        assert_eq!(bounds.len(), 2);
        assert!(bounds.iter().all(|&(_, _, depth)| depth == 1));

        // The optimised double-buffering kernel keeps two `ready` tokens
        // in flight towards the source; the bound must see both.
        let system = system_from_locals(&[
            ("s", "rec x . k?ready . k!value . x"),
            (
                "k",
                "s!ready . rec x . s!ready . s?value . t?ready . t!value . x",
            ),
            ("t", "rec x . k!ready . k?value . x"),
        ])
        .unwrap();
        let report = check(&system, 2).unwrap();
        assert!(report.exhaustive);
        let k_to_s = report
            .channel_bounds(&system)
            .into_iter()
            .find(|(from, to, _)| from.as_str() == "k" && to.as_str() == "s")
            .expect("k -> s channel used");
        assert_eq!(k_to_s.2, 2);
    }

    #[test]
    fn duplicate_roles_rejected() {
        let result = system_from_locals(&[("a", "b!x.end"), ("a", "b?x.end")]);
        assert!(result.is_err());
    }

    #[test]
    fn unknown_peer_rejected() {
        let result = system_from_locals(&[("a", "z!x.end")]);
        assert!(result.is_err());
    }

    /// A machine without states has no initial state to explore from.
    #[test]
    fn machine_without_states_rejected() {
        let mut b = Fsm::new("b");
        let only = b.add_state();
        b.set_initial(only);
        let error = System::new(vec![Fsm::new("a"), b]).unwrap_err();
        assert_eq!(error, SystemError::NoStates(Name::from("a")));
        assert_eq!(error.to_string(), "machine a has no states");
    }

    /// A label spelled like a role is that role's name, and still reads
    /// back as the label it is.
    #[test]
    fn roles_and_labels_share_one_name_table() {
        let safe = system_from_locals(&[("a", "b!b.end"), ("b", "a?b.end")]).unwrap();
        assert!(check(&safe, 1).unwrap().exhaustive);

        let stranded = system_from_locals(&[("a", "b!b.end"), ("b", "end")]).unwrap();
        let Err(Violation::OrphanMessages(config)) = check(&stranded, 1) else {
            panic!("stranded message not reported");
        };
        let queued = config.channels[1][0];
        assert_eq!(queued, stranded.roles()[1]);
        assert_eq!(queued.as_str(), "b");

        let unexpected = system_from_locals(&[("a", "b!a.end"), ("b", "a?b.end")]).unwrap();
        let Err(Violation::ReceptionError {
            role, peer, found, ..
        }) = check(&unexpected, 1)
        else {
            panic!("reception error not reported");
        };
        assert_eq!(
            [role.as_str(), peer.as_str(), found.as_str()],
            ["b", "a", "a"]
        );

        let error = |specs| system_from_locals(specs).err().map(|e| e.to_string());
        assert_eq!(
            error(&[("a", "b!x.end"), ("b", "a?x.end"), ("a", "end")]).as_deref(),
            Some("duplicate role a")
        );
        // `x` is a label before it is a peer, but not a role.
        assert_eq!(
            error(&[("a", "b!x.end"), ("b", "a?x.x!y.end")]).as_deref(),
            Some("machine b references unknown peer x")
        );
    }
}
