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
//! There are three entry points over one arena of configurations.
//! [`explore`] visits every reachable configuration and returns a
//! [`Report`]: the verdict, k-exhaustivity and each channel's maximum
//! depth. [`check`] returns only the verdict, from a search that skips
//! most interleavings of independent moves (below). [`bounds`] returns the
//! verdict and, exactly when [`explore`] would report an exhaustive
//! search, each channel's maximum depth: the depths the verdict's search
//! reached, where a search of the channel's two machines certifies them,
//! and otherwise one reduced search per queue. Whoever reads
//! [`Report::exhaustive`] — `rumpsteak-gen --check`,
//! the `kmc` binary, Fig 7's baseline column — calls [`explore`];
//! codegen's channel bounds call [`bounds`]; a caller that wants to know
//! whether the system is safe calls [`check`].
//!
//! # Reduced verdicts
//!
//! [`check`] is a stubborn-set search (Valmari; Godefroid's persistent
//! sets) with a cycle proviso. At a configuration, machine `i` is
//! *eligible* when it has rows, every send row's queue has room
//! (`len < k`), every receive row's queue exists and is non-empty, and at
//! least one row is enabled. The search expands only the enabled rows of
//! the lowest eligible machine, or every machine when none is eligible.
//!
//! Why that keeps every deadlock: each queue has exactly one sender and
//! one receiver. Sends on `i`'s queues that have room keep room while
//! others only dequeue from them, and the head of a queue `i` receives
//! from stays where it is while others only append to it. So until `i`
//! moves, no other machine can enable or disable one of `i`'s rows, and
//! each of `i`'s moves commutes with theirs: the stubborn-set conditions
//! D1 and D2.
//!
//! Why that keeps every reception error and orphan: both are *stable*.
//! A message queued towards a terminated machine stays queued, and a
//! machine that receives from one peer and finds an unexpected head can
//! neither move nor see that head change. D1 and D2 keep a reachable
//! stable violation reachable from every reduced expansion, and the
//! *cycle proviso* stops the search from deferring it forever: when a
//! reduced expansion finds a successor already explored, which is how
//! every cycle of expansions closes, every other machine is expanded too.
//! Since unexpanded machines fire nothing, reception errors and orphans
//! are tested on every configuration, for every machine: an unexpanded
//! machine's reception error is read from its queue heads, never inferred
//! from rows that were not tried.
//!
//! A machine receiving from several peers can show a reception error and
//! then receive from another peer, so that error is not stable: a system
//! with such a state is searched without reduction.
//!
//! When the reduced search meets a violation, [`check`] runs [`explore`]
//! and returns its violation. Every configuration the reduced search
//! visits is reachable, so the exact search finds one too, and every
//! reported [`Violation`] and [`Config`] is the exact search's. The
//! reduced search skips queue depths and full-queue sends, so its
//! [`Report::exhaustive`] means nothing and its [`Report::max_depths`]
//! are only lower bounds (which [`bounds`] starts from), and [`check`]
//! returns a [`Verdict`] without them.
//!
//! # Certified bounds from channel pairs
//!
//! [`bounds`] first runs [`check`]'s reduced search, and returns
//! [`check`]'s violation if there is one. Otherwise every configuration
//! that search visited is reachable, so the largest length `L` it saw on
//! a queue is a lower bound of the queue's maximum depth, and `L ≤ k`.
//! Then, for each pair of machines `p`, `r` with a queue between them, a
//! breadth-first search of two machines tries to show that neither queue
//! ever holds more than its `L`. It tracks `p`'s and `r`'s states and the
//! queues `p → r` and `r → p` exactly, labels in order, and abstracts
//! every other machine away: a send to a third machine never blocks, a
//! receive from a third machine is always enabled, whatever the label,
//! and a receive on a channel nobody sends on never is. The search stops,
//! and certifies nothing, at the first send that would take a queue past
//! its `L`, that is, to the limit `L + 1`. When it never gets there, both
//! queues' maximum depths are exactly their `L`.
//!
//! Why that is sound:
//!
//! * **The abstraction holds every real configuration.** A move of `p` or
//!   `r` in the system is a move of the two-machine search from the same
//!   states and queues: the abstraction only enables more. A move of any
//!   other machine leaves `p`, `r` and their two queues as they are. So
//!   the projection onto `(p, r, p → r, r → p)` of every configuration
//!   the system reaches, with no bound on its queues, is a configuration
//!   the abstraction reaches with no bound.
//! * **The limit cuts nothing off.** A queue grows one label at a time,
//!   so the shortest path of the abstraction to a configuration with a
//!   queue past its `L` first passes a configuration with a queue at its
//!   limit, through configurations that are all within their `L`s, every
//!   one of which the search expands. A search that never reaches a limit
//!   therefore shows that the unbounded abstraction, and with it the
//!   system, never holds more than `L` on either queue.
//! * **So a certified depth is exact** — reached by the verdict's search,
//!   never exceeded — and it is at most `k`, so no send on the queue ever
//!   finds it full at bound `k`. The contract of [`bounds`] holds: it
//!   gives depths exactly when [`explore`] at `k` is exhaustive, and then
//!   [`explore`]'s depths.
//!
//! A queue whose two machines synchronise through a third, as around a
//! ring, is not certified: the abstraction lets its sender run ahead.
//! Nor is one where the verdict's search, which expands the lowest
//! eligible machine first, never filled the queue as far as the system
//! can. Each such queue gets the search of the next section.
//!
//! # Exact bounds from per-queue searches
//!
//! For each queue no channel pair certified, [`bounds`] runs a reduced
//! depth-first search whose only result is that queue's largest length.
//! The queue is *visible*: its sends and receives are the moves whose
//! effect the result reads. This is Peled's ample-set reduction, whose
//! conditions C0–C3 hold as follows.
//!
//! * **C0, C1.** The ample set at a configuration is every enabled move of
//!   one machine that is eligible, as in "Reduced verdicts", and has no
//!   row on the visible queue. Eligibility asks for an enabled row, so the
//!   ample set is empty only where the configuration has no move (C0).
//!   Until the machine moves, nobody else enables, disables or fails to
//!   commute with one of its moves: the persistent-set argument of
//!   "Reduced verdicts", which is C1.
//! * **C2.** The machine has no row on the visible queue, so no ample move
//!   changes that queue's length: an ample set that is not every enabled
//!   move holds only invisible moves.
//! * **C3.** The stack proviso (Holzmann & Peled): a machine is passed
//!   over when one of its successors is on the depth-first stack, and
//!   when every eligible machine is passed over, every machine is
//!   expanded. A cycle of the reduced graph closes at a configuration on
//!   the stack, so every cycle holds a configuration expanded in full,
//!   and no move is deferred around a cycle forever.
//!
//! With C0–C3, every execution of the system is stutter equivalent, on
//! the visible queue's length, to an execution of the reduced graph: both
//! pass through the same lengths in the same order, each repeated some
//! number of times. Repeating or collapsing values does not change their
//! maximum, so the largest length any configuration the search expands
//! holds is the queue's exact maximum depth. None of this needs a
//! violation to be stable, and the system is already known safe, so
//! unlike [`check`] the search reduces systems with mixed-peer states
//! too.
//!
//! The searches run at bound `k + 1`, and one stops once its queue
//! reaches `k + 1`, where [`bounds`] returns `None`. This is exactly when
//! [`explore`] at `k` is not exhaustive. If a queue ever holds `k + 1`
//! labels, take the shortest execution that gets it there: every queue
//! holds at most `k` labels before its last send, which therefore runs at
//! bound `k` too and finds its queue full there. If no queue ever holds
//! more than `k`, no send finds its queue full at `k`, so bounds `k` and
//! `k + 1` reach the same configurations, and [`explore`] reports an
//! exhaustive search with these same depths.
//!
//! **Why depth-first.** The proviso needs a stack. The breadth-first
//! proviso of [`check`] expands in full whenever a successor was seen
//! before, which every two interleavings that join again trigger: with
//! one queue visible, Fig 7's ring of 8 at k = 16 then stores 155 764 of
//! its 157 184 configurations in its largest per-queue search, where the
//! depth-first search stores 3 829 in all of them.
//!
//! **Why each eligible machine is tried.** Expanding every machine as
//! soon as the lowest eligible machine's successors meet the stack, as
//! [`check`] does with its proviso, stores 26 966 configurations on the
//! benchmark's four Scribble systems at k = 16, more than the 10 384 the
//! exact search explores. Trying the next eligible machine first usually
//! finds one whose successors are all off the stack, and stores 6 061.
//! (Both figures search every queue; the channel pairs now certify all of
//! those queues, and store 1 328.)
//!
//! **What a search keeps.** The channel pairs' and the per-queue searches
//! share one arena and visited table, emptied between searches. A
//! per-queue search also keeps a mark per record: new, on the stack, or
//! done. Its stack is one frame per configuration being expanded — its
//! record and where its successors start in one shared vector of record
//! ids, which is why the visited table's insert hands back the id of a
//! record it already holds. A per-queue search stores every successor it
//! generates, those of machines the proviso passes over included, so on
//! a small system it can store more configurations than are reachable:
//! searching every queue of the benchmark's pmesh of 4, which has 326,
//! stores 643.
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
//! **The word width is chosen once per search.** A word holds a state
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
//! **The arena is the breadth-first queue** of [`explore`], [`check`] and
//! the channel pairs' searches (the per-queue searches keep a stack beside
//! it). Records are appended to one
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
//! is non-empty and no row receives the head. Once every row was tried,
//! that is "none fired", which costs one length word; a machine the
//! reduced search did not expand scans its rows for the head instead. A
//! state receiving from mixed peers tests the head of each inbound queue
//! against its labels. Checking machine by machine finds the error a scan
//! after all of them would: in the exact search, the lowest machine's, in
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
    /// Some state receives from several peers: [`check`] then searches
    /// without reduction.
    mixed_peers: bool,
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
    /// There is no machine at all.
    NoMachines,
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
            SystemError::NoMachines => f.write_str("no machines"),
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
        if machines.is_empty() {
            return Err(SystemError::NoMachines);
        }
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
        let mixed_peers = states
            .iter()
            .flatten()
            .any(|state: &State| state.inbound == MIXED_PEERS);
        Ok(Self {
            machines,
            roles,
            labels,
            steps,
            states,
            channels,
            receivers,
            widest,
            mixed_peers,
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

    /// The queue of channel `from * n + to`, or [`NO_QUEUE`].
    fn queue(&self, channel: usize) -> u32 {
        (self.channels.binary_search(&channel)).map_or(NO_QUEUE, index_u32)
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

/// Statistics of a successful exact k-MC search, [`explore`].
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
        channel_bounds(&self.max_depths, system)
    }
}

/// The non-zero `max_depths` of `system`'s channels, indexed
/// `from * n + to` as [`Report::max_depths`] and [`bounds`] give them, as
/// `(from, to, depth)` triples in channel-index order.
pub fn channel_bounds(max_depths: &[usize], system: &System) -> Vec<(Name, Name, usize)> {
    let n = system.roles.len();
    assert_eq!(max_depths.len(), n * n, "depths/system mismatch");
    let mut bounds = Vec::new();
    for (index, &depth) in max_depths.iter().enumerate() {
        if depth > 0 {
            bounds.push((system.roles[index / n], system.roles[index % n], depth));
        }
    }
    bounds
}

/// A record word: `u16` or `u32`, chosen per search.
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

/// `value` as a `W`. [`search`] picks a width that holds every state, label
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

    /// Appends `record` unless an equal one is already there. Returns the
    /// record's id, and whether it was appended.
    fn insert(&mut self, record: &[W]) -> (u32, bool) {
        if (self.len() + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let tag = Self::hash(record) & TAG;
        let mask = self.slots.len() - 1;
        let mut slot = self.home(tag);
        while self.slots[slot] != EMPTY {
            let entry = self.slots[slot];
            let id = (entry & !TAG) as u32;
            if entry & TAG == tag && self.record(id as usize) == record {
                return (id, false);
            }
            slot = (slot + 1) & mask;
        }
        // The table holds at most 2^31 records (see `grow`), so an id
        // never reaches `u32::MAX`, and a slot is never EMPTY.
        let id = index_u32(self.len());
        self.slots[slot] = tag | u64::from(id);
        self.words.extend_from_slice(record);
        self.starts
            .push(u32::try_from(self.words.len()).expect("k-MC: the arena exceeds 2^32 words"));
        (id, true)
    }

    /// Forgets every record, keeping the buffers and the table's size.
    fn clear(&mut self) {
        self.words.clear();
        self.starts.truncate(1);
        self.slots.fill(EMPTY);
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

/// A k-MC safe verdict from [`check`], with what its reduced search
/// explored: a subset of the reachable configurations, so these counts are
/// at most [`explore`]'s.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Verdict {
    /// Number of distinct configurations explored.
    pub configurations: usize,
    /// Number of transitions fired during exploration.
    pub transitions: usize,
}

/// Decides k-MC safety with channel bound `k` (`k ≥ 1`): no deadlock, no
/// reception error and no orphan message in any configuration reachable
/// with at most `k` messages per queue.
///
/// The search is reduced (see "Reduced verdicts" in the module docs). A
/// violation it reaches is reported as [`explore`] reports it, so every
/// `Err` is [`explore`]'s, offending [`Config`] included. For
/// exhaustivity and channel bounds, call [`explore`].
pub fn check(system: &System, k: usize) -> Result<Verdict, Violation> {
    let report = verdict(system, k)?;
    Ok(Verdict {
        configurations: report.configurations,
        transitions: report.transitions,
    })
}

/// The reduced search's [`Report`], or [`explore`]'s violation.
fn verdict(system: &System, k: usize) -> Result<Report, Violation> {
    search::<true>(system, k).map_err(|_| {
        // Every configuration the reduced search visits is reachable, so
        // the exact search finds a violation too: the first in its
        // breadth-first order.
        explore(system, k).expect_err("a violation the reduced search reached is reachable")
    })
}

/// Runs the exact k-MC search with channel bound `k` (`k ≥ 1`): every
/// reachable configuration, with the exhaustivity flag and the per-channel
/// depths a [`Report`] carries.
pub fn explore(system: &System, k: usize) -> Result<Report, Violation> {
    search::<false>(system, k)
}

/// Picks the record width for `system` at bound `k` and searches,
/// stubborn-set reduced when `REDUCE` holds. A constant, so the exact
/// search compiles without the reduction's tests.
fn search<const REDUCE: bool>(system: &System, k: usize) -> Result<Report, Violation> {
    let k = queue_bound(k);
    if narrow(system, k) {
        search_words::<u16, REDUCE>(system, k)
    } else {
        search_words::<u32, REDUCE>(system, k)
    }
}

/// `k` as a queue-length word. No queue can hold 2^32 messages, so
/// clamping a larger bound changes no verdict and no depth.
fn queue_bound(k: usize) -> u32 {
    u32::try_from(k.max(1)).unwrap_or(u32::MAX)
}

/// Whether `u16` words hold every state, label and queue length of
/// `system` at bound `k`.
fn narrow(system: &System, k: u32) -> bool {
    u16::try_from(k).is_ok() && u16::try_from(system.widest).is_ok()
}

/// The record of `system`'s initial configuration: every machine in its
/// initial state, every queue empty.
fn initial<W: Word>(system: &System) -> Vec<W> {
    let mut record: Vec<W> = (system.machines.iter())
        .map(|machine| word(index_u32(machine.initial().0)))
        .collect();
    record.resize(system.machines.len() + system.channels.len(), word(0));
    record
}

/// The configuration being expanded, copied out of the arena so that
/// successors can be appended to the arena meanwhile, with where each
/// queue's oldest label sits and each machine's compiled state.
struct Current<W> {
    words: Vec<W>,
    heads: Vec<usize>,
    states: Vec<State>,
}

impl<W: Word> Current<W> {
    fn new() -> Self {
        Self {
            words: Vec::new(),
            heads: Vec::new(),
            states: Vec::new(),
        }
    }

    /// Makes `record`, a configuration of `system`, the current one.
    fn load(&mut self, system: &System, record: &[W]) {
        let machine_count = system.machines.len();
        let fixed = machine_count + system.channels.len();
        self.words.clear();
        self.words.extend_from_slice(record);
        let (states, lens) = self.words[..fixed].split_at(machine_count);
        self.heads.clear();
        let mut next_head = fixed;
        for &len in lens {
            self.heads.push(next_head);
            next_head += unword(len);
        }
        self.states.clear();
        self.states
            .extend((system.states.iter().zip(states)).map(|(table, &state)| table[unword(state)]));
    }

    /// How many labels `queue` holds.
    fn queued(&self, queue: u32) -> u32 {
        self.words[self.states.len() + queue as usize].into()
    }

    /// The oldest label of `queue`, which must not be empty.
    fn oldest(&self, queue: u32) -> u32 {
        self.words[self.heads[queue as usize]].into()
    }

    /// Machine `index`'s rows in its current state.
    fn rows<'s>(&self, system: &'s System, index: usize) -> &'s [Step] {
        let state = &self.states[index];
        &system.steps[index][state.start as usize..state.end as usize]
    }

    /// Whether machine `index`'s moves alone may be expanded: it has rows,
    /// each send has room, each receive has a head, and one of them is
    /// enabled (why that suffices, in the module docs).
    fn eligible(&self, system: &System, index: usize, k: u32) -> bool {
        let mut enabled = false;
        for step in self.rows(system, index) {
            if step.send {
                if self.queued(step.queue) >= k {
                    return false;
                }
                enabled = true;
            } else {
                if step.queue == NO_QUEUE || self.queued(step.queue) == 0 {
                    return false;
                }
                enabled |= self.oldest(step.queue) == step.label;
            }
        }
        enabled
    }

    /// Whether `step` can fire: a send only disabled by a full queue, a
    /// receive only enabled by its label at the head of a queue.
    fn enabled(&self, step: &Step, k: u32) -> bool {
        if step.send {
            self.queued(step.queue) < k
        } else {
            // A channel without a queue is empty forever.
            step.queue != NO_QUEUE
                && self.queued(step.queue) > 0
                && self.oldest(step.queue) == step.label
        }
    }

    /// Writes into `scratch` the configuration machine `index` moves to by
    /// firing `step`, which must be enabled.
    fn fire(&self, index: usize, step: &Step, scratch: &mut Vec<W>) {
        let queue = step.queue as usize;
        let (head, len) = (self.heads[queue], self.queued(step.queue));
        scratch.clear();
        if step.send {
            let end = head + len as usize;
            scratch.extend_from_slice(&self.words[..end]);
            scratch.push(word(step.label));
            scratch.extend_from_slice(&self.words[end..]);
            scratch[self.states.len() + queue] = word(len + 1);
        } else {
            scratch.extend_from_slice(&self.words[..head]);
            scratch.extend_from_slice(&self.words[head + 1..]);
            scratch[self.states.len() + queue] = word(len - 1);
        }
        scratch[index] = word(step.target);
    }
}

/// [`search`] on records of `W` words; `k` fits a `W`.
fn search_words<W: Word, const REDUCE: bool>(system: &System, k: u32) -> Result<Report, Violation> {
    let machine_count = system.machines.len();
    // A mixed-peer reception error is not stable (module docs).
    let reduce = REDUCE && !system.mixed_peers;

    let mut scratch: Vec<W> = initial(system);
    let mut explored = Explored::new();
    explored.insert(&scratch);

    let mut transitions = 0usize;
    let mut exhaustive = true;
    let mut max_depths = vec![0usize; machine_count * machine_count];

    let mut current = Current::new();
    let mut cursor = 0;
    while cursor < explored.len() {
        current.load(system, explored.record(cursor));
        cursor += 1;
        let config = || materialise(system, &current.words);

        // The lowest machine whose moves alone may be expanded.
        let chosen = if reduce {
            (0..machine_count).find(|&index| current.eligible(system, index, k))
        } else {
            None
        };

        // Machine by machine, from the chosen one on and round to it
        // again: fire a machine's enabled rows if it is expanded, then look
        // for its reception error, a queue head none of its rows expects.
        // The cycle proviso: once a successor of the chosen machine was
        // seen before, it may close a cycle of reduced expansions, so every
        // machine after it is expanded too.
        let before = transitions;
        let mut fresh = true;
        let start = chosen.unwrap_or(0);
        for index in (start..machine_count).chain(0..start) {
            let steps = current.rows(system, index);
            let expanded = chosen.is_none_or(|chosen| chosen == index) || !fresh;
            let before_machine = transitions;
            for step in if expanded { steps } else { &[] } {
                if !current.enabled(step, k) {
                    // A send is disabled only by a full queue.
                    exhaustive &= !step.send;
                    continue;
                }
                if step.send {
                    let depth = &mut max_depths[system.channels[step.queue as usize]];
                    *depth = (*depth).max(current.queued(step.queue) as usize + 1);
                }
                current.fire(index, step, &mut scratch);
                transitions += 1;
                fresh &= explored.insert(&scratch).1;
            }

            let receives = |queue: u32| {
                let found = current.oldest(queue);
                steps
                    .iter()
                    .any(|step| step.queue == queue && step.label == found)
            };
            let unexpected = match current.states[index].inbound {
                NOT_RECEIVING => None,
                // Every row receives, from the one peer: once all of them
                // were tried, none fired exactly when the head is none of
                // their labels.
                queue if queue != MIXED_PEERS => (current.queued(queue) > 0
                    && if expanded {
                        transitions == before_machine
                    } else {
                        !receives(queue)
                    })
                .then_some(queue),
                _ => steps.iter().map(|step| step.queue).find(|&queue| {
                    queue != NO_QUEUE && current.queued(queue) > 0 && !receives(queue)
                }),
            };
            if let Some(queue) = unexpected {
                return Err(Violation::ReceptionError {
                    role: system.roles[index],
                    peer: system.roles[system.channels[queue as usize] / machine_count],
                    found: system.labels[current.oldest(queue) as usize],
                    config: config(),
                });
            }
        }

        // Orphans: a terminated machine receives nothing, so whatever is
        // queued towards it stays queued in every successor.
        let terminal = |state: &State| state.start == state.end;
        if current.states.iter().any(terminal) {
            let orphaned = (system.receivers.iter().enumerate()).any(|(queue, &to)| {
                current.queued(index_u32(queue)) > 0 && terminal(&current.states[to])
            });
            if orphaned {
                return Err(Violation::OrphanMessages(config()));
            }
        }
        if transitions == before && !current.states.iter().all(terminal) {
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

/// Each channel's maximum depth, indexed `from * n + to` like
/// [`Report::max_depths`], when [`explore`] at bound `k` would report an
/// exhaustive search; `None` when it would not.
///
/// First decides k-MC safety with [`check`]'s reduced search and returns
/// [`check`]'s [`Violation`]. The depths that search reached are lower
/// bounds; each pair of machines with a queue between them then tries to
/// certify its queues at those depths, and each queue no certificate
/// settles gets one reduced depth-first search at bound `k + 1` (see
/// "Certified bounds from channel pairs" and "Exact bounds from per-queue
/// searches" in the module docs). When every depth stays at or below `k`,
/// no send ever finds its queue full at bound `k`, so [`explore`] reports
/// an exhaustive search with these same depths, which are then tight
/// static bounds. When some depth exceeds `k`, a send finds that queue
/// full at bound `k`, and this returns `Ok(None)`.
pub fn bounds(system: &System, k: usize) -> Result<Option<Vec<usize>>, Violation> {
    Ok(bounds_stored(system, k)?.map(|(max_depths, _, _)| max_depths))
}

/// [`bounds`], with the configurations its searches stored, summed over
/// the channel pairs and the queues, and how many queues a channel pair
/// certified. A per-queue search stores every successor it generates,
/// including those of a machine the stack proviso then passes over, so on
/// a small system the sum can exceed the reachable configurations. For
/// the differential test's pins and Fig 7's explored line.
#[doc(hidden)]
pub fn bounds_stored(
    system: &System,
    k: usize,
) -> Result<Option<(Vec<usize>, usize, usize)>, Violation> {
    // Every configuration the reduced search visits is reachable, so the
    // depths it reached are lower bounds, each at most `k`.
    let lower = verdict(system, k)?.max_depths;
    // The per-queue searches run one message past `k`, so that a queue
    // that ever holds more than `k` shows as one that reaches the
    // search's bound.
    let limit = queue_bound(k).saturating_add(1);
    Ok(if narrow(system, limit) {
        bounds_words::<u16>(system, lower, limit)
    } else {
        bounds_words::<u32>(system, lower, limit)
    })
}

/// [`bounds_stored`]' searches on records of `W` words, from the depths
/// `lower` the verdict search reached: the channel pairs' certificates,
/// then a per-queue search at bound `limit`, which fits a `W`, for each
/// queue no certificate settled. `None` once such a queue reaches `limit`.
fn bounds_words<W: Word>(
    system: &System,
    lower: Vec<usize>,
    limit: u32,
) -> Option<(Vec<usize>, usize, usize)> {
    let machine_count = system.machines.len();
    let mut search = DepthSearch::<W>::new();
    let mut certified = vec![false; system.channels.len()];
    let mut configurations = 0;
    // Each pair once, from its lower queue. A queue from a machine to
    // itself is its own reverse and is left to its per-queue search.
    for (queue, &channel) in system.channels.iter().enumerate() {
        let (from, to) = (channel / machine_count, channel % machine_count);
        let back = system.queue(to * machine_count + from);
        if back <= index_u32(queue) {
            continue;
        }
        let queues = [index_u32(queue), back];
        let holds = search.certify(system, [from, to], queues, &lower);
        configurations += search.explored.len();
        if holds {
            for queue in queues.into_iter().filter(|&queue| queue != NO_QUEUE) {
                certified[queue as usize] = true;
            }
        }
    }
    let mut max_depths = lower;
    for (queue, &channel) in system.channels.iter().enumerate() {
        if !certified[queue] {
            max_depths[channel] = search.max_depth(system, limit, index_u32(queue))? as usize;
            configurations += search.explored.len();
        }
    }
    let certified = certified.into_iter().filter(|&holds| holds).count();
    Some((max_depths, configurations, certified))
}

/// Where a record stands in [`DepthSearch`].
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mark {
    /// Stored, never expanded.
    New,
    /// Expanded, and its successors are not all visited yet.
    OnStack,
    /// Expanded, and every successor visited.
    Done,
}

/// A configuration on [`DepthSearch`]'s stack: its record, and its
/// successors, `successors[start..]`, of which those before `next` were
/// visited.
struct Frame {
    id: usize,
    start: usize,
    next: usize,
}

/// The reduced depth-first search of one queue's maximum depth, and the
/// breadth-first search of a channel pair's certificate. Its buffers
/// outlive a search, so all the searches of a system's bounds reuse one
/// arena and table.
struct DepthSearch<W> {
    explored: Explored<W>,
    /// Indexed by record id.
    marks: Vec<Mark>,
    /// The successors of every frame on the stack, back to back.
    successors: Vec<u32>,
    stack: Vec<Frame>,
    current: Current<W>,
    scratch: Vec<W>,
}

impl<W: Word> DepthSearch<W> {
    fn new() -> Self {
        Self {
            explored: Explored::new(),
            marks: Vec::new(),
            successors: Vec::new(),
            stack: Vec::new(),
            current: Current::new(),
            scratch: Vec::new(),
        }
    }

    /// The largest depth `visible` reaches, or `None` once it reaches `k`.
    fn max_depth(&mut self, system: &System, k: u32, visible: u32) -> Option<u32> {
        self.explored.clear();
        self.marks.clear();
        self.successors.clear();
        self.stack.clear();
        self.scratch = initial(system);
        self.store();

        let mut depth = 0;
        let mut next = Some(0);
        loop {
            if let Some(id) = next.take() {
                self.marks[id] = Mark::OnStack;
                self.current.load(system, self.explored.record(id));
                let len = self.current.queued(visible);
                if len >= k {
                    return None;
                }
                depth = depth.max(len);
                let start = self.successors.len();
                self.expand(system, k, visible);
                self.stack.push(Frame {
                    id,
                    start,
                    next: start,
                });
            }
            let Some(frame) = self.stack.last_mut() else {
                return Some(depth);
            };
            if let Some(&successor) = self.successors.get(frame.next) {
                frame.next += 1;
                if self.marks[successor as usize] == Mark::New {
                    next = Some(successor as usize);
                }
            } else {
                self.marks[frame.id] = Mark::Done;
                self.successors.truncate(frame.start);
                self.stack.pop();
            }
        }
    }

    /// Whether the channel pair `pair` keeps its queues `queues` (the
    /// second [`NO_QUEUE`] when the pair has one queue only) within the
    /// depths `lower`, indexed by channel: a breadth-first search of the
    /// two machines with every other machine abstracted away, which stops
    /// at the first send that would take a queue past its depth ("Certified
    /// bounds from channel pairs" in the module docs). A record is
    /// `[state of pair[0], state of pair[1], length of queues[0], length
    /// of queues[1] | labels of queues[0] | labels of queues[1]]`.
    fn certify(
        &mut self,
        system: &System,
        pair: [usize; 2],
        queues: [u32; 2],
        lower: &[usize],
    ) -> bool {
        self.explored.clear();
        self.scratch.clear();
        (self.scratch)
            .extend(pair.map(|index| word::<W>(index_u32(system.machines[index].initial().0))));
        self.scratch.extend([word::<W>(0); 2]);
        self.explored.insert(&self.scratch);

        let record = &mut self.current.words;
        let mut cursor = 0;
        while cursor < self.explored.len() {
            record.clear();
            record.extend_from_slice(self.explored.record(cursor));
            cursor += 1;
            let lens = [unword(record[2]), unword(record[3])];
            let heads = [4, 4 + lens[0]];
            for (side, &index) in pair.iter().enumerate() {
                let state = system.states[index][unword(record[side])];
                for step in &system.steps[index][state.start as usize..state.end as usize] {
                    // A channel nobody sends on stays empty.
                    if step.queue == NO_QUEUE {
                        continue;
                    }
                    let scratch = &mut self.scratch;
                    scratch.clear();
                    scratch.extend_from_slice(record);
                    match queues.iter().position(|&queue| queue == step.queue) {
                        // A queue to or from a third machine: a send never
                        // blocks, and a receive finds any label it wants.
                        None => {}
                        Some(tracked) if step.send => {
                            // The send would fill the queue to its limit,
                            // one past the verdict's depth.
                            let depth = lower[system.channels[step.queue as usize]];
                            if lens[tracked] >= depth {
                                return false;
                            }
                            scratch.insert(heads[tracked] + lens[tracked], word(step.label));
                            scratch[2 + tracked] = word(index_u32(lens[tracked] + 1));
                        }
                        Some(tracked) => {
                            if lens[tracked] == 0 || record[heads[tracked]].into() != step.label {
                                continue;
                            }
                            scratch.remove(heads[tracked]);
                            scratch[2 + tracked] = word(index_u32(lens[tracked] - 1));
                        }
                    }
                    scratch[side] = word(step.target);
                    self.explored.insert(scratch);
                }
            }
        }
        true
    }

    /// Pushes the successors the search follows from the current
    /// configuration: the enabled moves of the first machine, in index
    /// order, that is eligible, has no row on the `visible` queue and
    /// reaches no configuration on the stack; every enabled move when no
    /// machine qualifies.
    fn expand(&mut self, system: &System, k: u32, visible: u32) {
        let machine_count = system.machines.len();
        for index in 0..machine_count {
            let invisible =
                (self.current.rows(system, index).iter()).all(|step| step.queue != visible);
            if !invisible || !self.current.eligible(system, index, k) {
                continue;
            }
            let start = self.successors.len();
            self.fire_all(system, k, index);
            // The stack proviso.
            let marks = &self.marks;
            if (self.successors[start..].iter()).all(|&id| marks[id as usize] != Mark::OnStack) {
                return;
            }
            self.successors.truncate(start);
        }
        for index in 0..machine_count {
            self.fire_all(system, k, index);
        }
    }

    /// Pushes the successors of machine `index`'s enabled moves.
    fn fire_all(&mut self, system: &System, k: u32, index: usize) {
        for step in self.current.rows(system, index) {
            if self.current.enabled(step, k) {
                self.current.fire(index, step, &mut self.scratch);
                let id = self.store();
                self.successors.push(id);
            }
        }
    }

    /// Stores the record in `scratch` unless it is there already; its id.
    fn store(&mut self) -> u32 {
        let (id, new) = self.explored.insert(&self.scratch);
        if new {
            self.marks.push(Mark::New);
        }
        id
    }
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
        let report = explore(&system, 1).unwrap();
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
        let report = explore(&system, 2).unwrap();
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
        let report = explore(&system, 1).unwrap();
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
        let report = explore(&system, 4).unwrap();
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
        let report = explore(&system, 2).unwrap();
        assert!(report.exhaustive);
        let k_to_s = report
            .channel_bounds(&system)
            .into_iter()
            .find(|(from, to, _)| from.as_str() == "k" && to.as_str() == "s")
            .expect("k -> s channel used");
        assert_eq!(k_to_s.2, 2);
    }

    /// Ping-pong: the verdict's search reaches depth 1 on both queues,
    /// and the pair {a, b} never passes it, so both are certified; at
    /// lower depths the certificate fails.
    #[test]
    fn channel_pair_certifies_the_verdict_depths() {
        let system =
            system_from_locals(&[("a", "b!ping.b?pong.end"), ("b", "a?ping.a!pong.end")]).unwrap();
        assert_eq!(
            bounds_stored(&system, 4).unwrap(),
            Some((vec![0, 1, 1, 0], 5, 2))
        );
        let mut search = DepthSearch::<u16>::new();
        let queues = [system.queue(1), system.queue(2)];
        assert!(search.certify(&system, [0, 1], queues, &[0, 1, 1, 0]));
        assert!(!search.certify(&system, [0, 1], queues, &[0, 1, 0, 0]));
        assert!(!search.certify(&system, [0, 1], queues, &[0, 0, 1, 0]));
    }

    /// In the pair {b, d}, `b`'s receive from the third machine `c` is
    /// always enabled when `c` sends to `b`, whatever `c` sends, and never
    /// when nobody does.
    #[test]
    fn channel_pair_abstracts_third_machines() {
        let certify = |c: &str| {
            let system =
                system_from_locals(&[("b", "c?go . d!v . end"), ("c", c), ("d", "b?v . end")])
                    .unwrap();
            let queues = [system.queue(2), system.queue(2 * 3)];
            DepthSearch::<u16>::new().certify(&system, [0, 2], queues, &[0; 9])
        };
        assert!(!certify("b!stop . end"));
        assert!(certify("end"));
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

    /// A system of no machines is an error, not a system with one
    /// (empty) configuration that is trivially safe.
    #[test]
    fn system_without_machines_rejected() {
        let error = System::new(Vec::new()).unwrap_err();
        assert_eq!(error, SystemError::NoMachines);
        assert_eq!(error.to_string(), "no machines");
        assert!(system_from_locals(&[]).is_err());
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
        assert!(explore(&safe, 1).unwrap().exhaustive);

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
