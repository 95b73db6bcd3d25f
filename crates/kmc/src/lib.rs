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
//! variable-length record of `u32` words:
//!
//! ```text
//! [ state of machine 0 .. n-1 | length of queue 0 .. c-1 | labels of queue 0 | labels of queue 1 | .. ]
//! ```
//!
//! Only the `c` channels some machine sends on get a queue, in
//! `from * n + to` order; a channel nobody sends on stays empty forever
//! and costs no word. A queued label is its [`Name::id`], oldest first.
//! Empty queues cost one length word whatever `k` is, and equal
//! configurations are equal word for word, so hashing and comparing a
//! configuration is hashing and comparing a slice.
//!
//! **The machines are read as they are.** An [`Fsm`]'s rows are flat
//! arrays of actions whose names are interned, so a label's id is the
//! word a queue holds. [`System::new`] maps each row's peer to its
//! machine index once, in a table beside the rows. The explorer reads a
//! state's `(action, target)` rows straight from the machine, their peers
//! from that table, and finds the queue an action touches in one
//! `from * n + to → queue` table; it never hashes a name or searches the
//! role list.
//!
//! **The arena is the breadth-first queue.** Records are appended to one
//! `Vec<u32>` in the order they are discovered and never move or change;
//! record `id` is the `id`-th record appended. A cursor walks the record
//! ids from 0: everything before it has been expanded, everything from it
//! on is the FIFO frontier, so discovery order *is* breadth-first order
//! and the first violation found is the one a `VecDeque` of
//! configurations would find. Each successor is assembled in one reused
//! scratch buffer and copied into the arena only if it is new.
//!
//! **The visited set** is an open-addressing table (linear probing, a
//! power-of-two number of slots) of record ids with each record's 64-bit
//! hash stored beside its id. Its invariants: at most half the slots are
//! occupied, so a probe always ends at a free slot; a slot's stored hash
//! is the hash of the record its id names, so growth re-places entries
//! from the stored hashes without reading the arena; ids never change once
//! handed out, so doubling the table moves slots, not records. A lookup
//! compares the arena slice only when the full hash matches.
//!
//! [`Config`]s are materialised only for the one configuration a
//! [`Violation`] carries.

use std::collections::VecDeque;
use std::fmt;

use theory::fsm::{Direction, Fsm, StateIndex};
use theory::name::Name;

/// A communicating system: one FSM per participant.
///
/// Machine roles must be pairwise distinct, and every action's peer must
/// name another machine in the system.
#[derive(Clone, Debug)]
pub struct System {
    machines: Vec<Fsm>,
    /// The machines' roles, in machine order.
    roles: Vec<Name>,
    /// Per machine, the machine index of each row's peer, indexed like
    /// [`Fsm::rows`].
    peers: Vec<Vec<u32>>,
}

/// Errors constructing a [`System`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SystemError {
    /// Two machines share a role name.
    DuplicateRole(Name),
    /// An action references a participant with no machine.
    UnknownPeer { role: Name, peer: Name },
}

impl fmt::Display for SystemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SystemError::DuplicateRole(role) => write!(f, "duplicate role {role}"),
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
        let mut peers = Vec::with_capacity(machines.len());
        for machine in &machines {
            let mut indices = Vec::with_capacity(machine.rows().len());
            for (action, _) in machine.rows() {
                let Some(index) = roles.iter().position(|role| *role == action.peer) else {
                    return Err(SystemError::UnknownPeer {
                        role: machine.role,
                        peer: action.peer,
                    });
                };
                indices.push(index as u32);
            }
            peers.push(indices);
        }
        Ok(Self {
            machines,
            roles,
            peers,
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

    /// The label of some action of the system whose id is `id`.
    fn label(&self, id: u32) -> Name {
        self.machines
            .iter()
            .flat_map(Fsm::rows)
            .map(|(action, _)| action.label)
            .find(|label| label.id() == id)
            .expect("queued labels are labels of the system's actions")
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

/// Marks a free slot of [`Explored::ids`]; never a record id.
const EMPTY: u32 = u32::MAX;

/// Every configuration discovered so far: the arena of packed records,
/// which is also the breadth-first queue, and the visited table over it
/// (layout and invariants in the module docs).
struct Explored {
    /// The records, back to back in discovery order.
    words: Vec<u32>,
    /// Record `id` is `words[starts[id]..starts[id + 1]]`.
    starts: Vec<usize>,
    /// Open-addressing table: a record id per slot, or [`EMPTY`].
    ids: Vec<u32>,
    /// Hash of the record named by the same slot of `ids`.
    hashes: Vec<u64>,
}

impl Explored {
    fn new() -> Self {
        const SLOTS: usize = 64;
        Self {
            words: Vec::new(),
            starts: vec![0],
            ids: vec![EMPTY; SLOTS],
            hashes: vec![0; SLOTS],
        }
    }

    /// Number of records.
    fn len(&self) -> usize {
        self.starts.len() - 1
    }

    fn record(&self, id: usize) -> &[u32] {
        &self.words[self.starts[id]..self.starts[id + 1]]
    }

    /// Word-wise multiplicative hash. The multiplier pushes every input
    /// bit towards the top, which is where [`Self::home`] reads.
    fn hash(record: &[u32]) -> u64 {
        record.iter().fold(0u64, |hash, &word| {
            (hash.rotate_left(5) ^ u64::from(word)).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        })
    }

    /// First slot probed for `hash`: its top `log2(slots)` bits.
    fn home(&self, hash: u64) -> usize {
        (hash >> (u64::BITS - self.ids.len().trailing_zeros())) as usize
    }

    /// Appends `record` unless an equal one is already there.
    fn insert(&mut self, record: &[u32]) {
        if (self.len() + 1) * 2 > self.ids.len() {
            self.grow();
        }
        let hash = Self::hash(record);
        let mask = self.ids.len() - 1;
        let mut slot = self.home(hash);
        while self.ids[slot] != EMPTY {
            if self.hashes[slot] == hash && self.record(self.ids[slot] as usize) == record {
                return;
            }
            slot = (slot + 1) & mask;
        }
        // A wrapped id would alias an earlier record and read as "already
        // seen": stop instead.
        self.ids[slot] = u32::try_from(self.len())
            .ok()
            .filter(|&id| id != EMPTY)
            .expect("k-MC: exploration exceeds 2^32 - 1 configurations");
        self.hashes[slot] = hash;
        self.words.extend_from_slice(record);
        self.starts.push(self.words.len());
    }

    /// Doubles the table, re-placing every entry from its stored hash.
    fn grow(&mut self) {
        let slots = self.ids.len() * 2;
        let ids = std::mem::replace(&mut self.ids, vec![EMPTY; slots]);
        let hashes = std::mem::replace(&mut self.hashes, vec![0; slots]);
        for (id, hash) in ids.into_iter().zip(hashes) {
            if id == EMPTY {
                continue;
            }
            let mut slot = self.home(hash);
            while self.ids[slot] != EMPTY {
                slot = (slot + 1) & (slots - 1);
            }
            self.ids[slot] = id;
            self.hashes[slot] = hash;
        }
    }
}

/// Unpacks a record of `system` into the [`Config`] a [`Violation`]
/// carries.
fn materialise(system: &System, record: &[u32], channels: &[usize]) -> Config {
    let machine_count = system.machines.len();
    let (states, rest) = record.split_at(machine_count);
    let (lens, mut labels) = rest.split_at(channels.len());
    let mut queues = vec![VecDeque::new(); machine_count * machine_count];
    for (&channel, &len) in channels.iter().zip(lens) {
        let (queue, later) = labels.split_at(len as usize);
        queues[channel] = queue.iter().map(|&label| system.label(label)).collect();
        labels = later;
    }
    Config {
        states: states.iter().map(|&s| StateIndex(s as usize)).collect(),
        channels: queues,
    }
}

/// Marks a channel no machine sends on in the `from * n + to → queue`
/// table of [`check`]: it has no queue and stays empty forever.
const NO_QUEUE: u32 = u32::MAX;

/// Runs the k-MC check with channel bound `k` (`k ≥ 1`).
pub fn check(system: &System, k: usize) -> Result<Report, Violation> {
    // Queue lengths are record words. No queue can hold 2^32 messages, so
    // clamping a larger bound changes no verdict.
    let k = u32::try_from(k.max(1)).unwrap_or(u32::MAX);
    let machines = &system.machines;
    let machine_count = machines.len();
    // `queues` maps a channel (`from * n + to`) to its queue in a record
    // and `channels` a queue back to its channel: only the channels some
    // machine sends on get a queue, in ascending order.
    let mut queues = vec![NO_QUEUE; machine_count * machine_count];
    for (index, (machine, peers)) in machines.iter().zip(&system.peers).enumerate() {
        for ((action, _), &peer) in machine.rows().iter().zip(peers) {
            if action.direction == Direction::Send {
                queues[index * machine_count + peer as usize] = 0;
            }
        }
    }
    let channels: Vec<usize> = (0..queues.len())
        .filter(|&channel| queues[channel] != NO_QUEUE)
        .collect();
    for (queue, &channel) in channels.iter().enumerate() {
        queues[channel] = queue as u32;
    }
    // Words before the first queued label: the states, then the lengths.
    let fixed = machine_count + channels.len();

    let mut scratch: Vec<u32> = machines
        .iter()
        .map(|machine| machine.initial().0 as u32)
        .collect();
    scratch.resize(fixed, 0);
    let mut explored = Explored::new();
    explored.insert(&scratch);

    let mut transitions = 0usize;
    let mut exhaustive = true;
    let mut max_depths = vec![0usize; machine_count * machine_count];

    // The configuration being expanded, copied out of the arena so that
    // successors can be appended to it meanwhile, and where in that copy
    // each queue's oldest label sits.
    let mut current: Vec<u32> = Vec::new();
    let mut heads = vec![0usize; channels.len()];
    // Each machine's transitions in the configuration being expanded,
    // with their peers' machine indices.
    let mut rows = Vec::with_capacity(machine_count);

    let mut cursor = 0;
    while cursor < explored.len() {
        current.clear();
        current.extend_from_slice(explored.record(cursor));
        cursor += 1;
        let (states, lens) = current[..fixed].split_at(machine_count);
        let mut next_head = fixed;
        for (head, &len) in heads.iter_mut().zip(lens) {
            *head = next_head;
            next_head += len as usize;
        }
        rows.clear();
        rows.extend((machines.iter().zip(&system.peers).zip(states)).map(
            |((machine, peers), &state)| {
                let range = machine.row_range(StateIndex(state as usize));
                (&machine.rows()[range.clone()], &peers[range])
            },
        ));
        // The queue a receive of machine `index` from `peer` takes the
        // head of, if anybody sends on that channel.
        let inbound = |index: usize, peer: u32| {
            let queue = queues[peer as usize * machine_count + index];
            (queue != NO_QUEUE).then_some(queue as usize)
        };
        let config = || materialise(system, &current, &channels);

        let mut enabled_any = false;
        for (index, &(row, peers)) in rows.iter().enumerate() {
            for ((action, target), &peer) in row.iter().zip(peers) {
                scratch.clear();
                match action.direction {
                    Direction::Send => {
                        // A machine's own sends always have a queue.
                        let queue = queues[index * machine_count + peer as usize] as usize;
                        let len = lens[queue];
                        if len >= k {
                            exhaustive = false;
                            continue;
                        }
                        let end = heads[queue] + len as usize;
                        scratch.extend_from_slice(&current[..end]);
                        scratch.push(action.label.id());
                        scratch.extend_from_slice(&current[end..]);
                        scratch[machine_count + queue] = len + 1;
                        let depth = &mut max_depths[channels[queue]];
                        *depth = (*depth).max(len as usize + 1);
                    }
                    Direction::Receive => {
                        // A channel without a queue is empty forever.
                        let Some(queue) = inbound(index, peer) else {
                            continue;
                        };
                        let (head, len) = (heads[queue], lens[queue]);
                        if len == 0 || current[head] != action.label.id() {
                            continue;
                        }
                        scratch.extend_from_slice(&current[..head]);
                        scratch.extend_from_slice(&current[head + 1..]);
                        scratch[machine_count + queue] = len - 1;
                    }
                }
                scratch[index] = target.0 as u32;
                enabled_any = true;
                transitions += 1;
                explored.insert(&scratch);
            }
        }

        // Reception errors: a machine committed to receiving whose
        // matching channel head is unexpected.
        for (index, &(all, peers)) in rows.iter().enumerate() {
            if all.is_empty() || all.iter().any(|(a, _)| a.direction != Direction::Receive) {
                // Not a receive-committed state (sends can still progress).
                continue;
            }
            for ((action, _), &peer) in all.iter().zip(peers) {
                let Some(queue) = inbound(index, peer).filter(|&queue| lens[queue] > 0) else {
                    continue;
                };
                let found = current[heads[queue]];
                let expected = all
                    .iter()
                    .any(|(a, _)| a.peer == action.peer && a.label.id() == found);
                if !expected {
                    return Err(Violation::ReceptionError {
                        role: system.roles[index],
                        peer: action.peer,
                        found: system.label(found),
                        config: config(),
                    });
                }
            }
        }

        // Orphans: a terminated machine receives nothing, so whatever is
        // queued towards it stays queued in every successor.
        let terminal = |index: usize| rows[index].0.is_empty();
        let orphaned = channels
            .iter()
            .zip(lens)
            .any(|(&channel, &len)| len > 0 && terminal(channel % machine_count));
        if orphaned {
            return Err(Violation::OrphanMessages(config()));
        }
        if !enabled_any && !(0..machine_count).all(terminal) {
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
