//! SISO prefixes `π` and the reduction relation `⟨π ⌈⌋ π′⟩  ⟨…⟩`
//! (paper Definition 3), in the lazily-removable representation of
//! Appendix B.5.
//!
//! A prefix is a grow-only list of transitions. Elements are consumed
//! either by advancing `start` (when the head is consumed) or by flagging
//! them removed (when a reduction consumes an element in the middle — the
//! `[)A]`/`[)B]` cases). The flags sit in a vector of their own beside the
//! actions, and every scan walks live elements by index. [`Snapshot`]s
//! record `(len, start, removed.len())` so the depth-first visitor can
//! revert cheaply without copying. A prefix holds [`Action`]s by value:
//! their names are interned, so pushing and reverting never touch a
//! reference count and comparing two actions never reads a string.

use theory::fsm::{Action, Direction};

/// A recorded point in a prefix's history; see [`Prefix::snapshot`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Snapshot {
    /// Length of `actions` at snapshot time.
    pub size: usize,
    /// Value of `start` at snapshot time.
    pub start: usize,
    /// Length of the `removed` log at snapshot time.
    pub removed: usize,
}

/// A prefix `π`: the sequence of actions the algorithm has traversed but
/// not yet matched between subtype and supertype.
#[derive(Clone, Debug, Default)]
pub struct Prefix {
    /// Every action pushed and not reverted, in order.
    actions: Vec<Action>,
    /// `flagged[i]` marks `actions[i]` lazily removed.
    flagged: Vec<bool>,
    /// Elements before `start` are consumed (a cheap bulk form of removal).
    start: usize,
    /// Log of indices removed by flagging, in removal order, for revert.
    removed: Vec<usize>,
}

impl Prefix {
    /// An empty prefix with room for `capacity` actions before it grows.
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        Self {
            actions: Vec::with_capacity(capacity),
            flagged: Vec::with_capacity(capacity),
            start: 0,
            removed: Vec::with_capacity(capacity),
        }
    }

    /// Appends an action to the prefix.
    pub fn push(&mut self, action: Action) {
        self.actions.push(action);
        self.flagged.push(false);
    }

    /// True when no live elements remain.
    pub fn is_empty(&self) -> bool {
        self.flagged[self.start.min(self.flagged.len())..]
            .iter()
            .all(|&flagged| flagged)
    }

    /// Number of live elements.
    pub fn len(&self) -> usize {
        self.live().count()
    }

    /// Iterates over `(index, action)` for live elements, in order.
    pub fn live(&self) -> impl Iterator<Item = (usize, &Action)> {
        (self.start..self.actions.len())
            .filter(|&index| !self.flagged[index])
            .map(|index| (index, &self.actions[index]))
    }

    /// Removes the element at `index` (which must be live).
    ///
    /// Maintains the invariant that the element at `start` is never
    /// flagged: removing the head advances `start` past any flagged run.
    pub fn remove(&mut self, index: usize) {
        debug_assert!(index >= self.start);
        debug_assert!(!self.flagged[index], "double removal at {index}");
        if index == self.start {
            self.start += 1;
        } else {
            self.flagged[index] = true;
            self.removed.push(index);
        }
        // Advance start past any previously flagged elements so the head
        // is always a live element.
        while self.flagged.get(self.start).is_some_and(|&flagged| flagged) {
            self.start += 1;
        }
    }

    /// Records the current state for a later [`Prefix::revert`].
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            size: self.actions.len(),
            start: self.start,
            removed: self.removed.len(),
        }
    }

    /// Restores the prefix to `snapshot`: un-flags every element removed
    /// since, truncates appended elements and resets `start`.
    pub fn revert(&mut self, snapshot: Snapshot) {
        for &index in &self.removed[snapshot.removed..] {
            self.flagged[index] = false;
        }
        self.removed.truncate(snapshot.removed);
        self.actions.truncate(snapshot.size);
        self.flagged.truncate(snapshot.size);
        self.start = snapshot.start;
    }

    /// The `[asm]` termination check of Appendix B.5, Eq. (2):
    ///
    /// ```text
    /// actions[start..] == actions[..snapshot.size][snapshot.start..]
    /// ```
    ///
    /// Both ranges are compared with their *current* flags; a supertype
    /// action that "hangs on" without ever being consumed makes the left
    /// range strictly longer, failing the check — this is what rejects
    /// subtypes that forget actions (Fig A.14).
    pub fn matches_snapshot(&self, snapshot: Snapshot) -> bool {
        let current = self.start.min(self.actions.len());
        let recorded = snapshot.start..snapshot.size;
        self.flagged[current..] == self.flagged[recorded.clone()]
            && self.actions[current..] == self.actions[recorded]
    }
}

/// Result of attempting one reduction step on a prefix pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Reduction {
    /// A rule applied; the pair shrank.
    Progress,
    /// No rule applies now, but appending more actions may unblock it.
    Blocked,
    /// No rule can ever apply (fail-early, Appendix B.5): the subtype's
    /// head is permanently obstructed in the supertype prefix.
    DeadEnd,
}

/// Attempts a single reduction `⟨sub ⌈⌋ sup⟩  ⟨sub′ ⌈⌋ sup′⟩`, driven by
/// the head of the subtype prefix:
///
/// * `[)i]`/`[)o]`: the heads match directly,
/// * `[)A]`: a head input `p?ℓ` matches across a context `A(p)` of inputs
///   from participants other than `p`,
/// * `[)B]`: a head output `p!ℓ` matches across a context `B(p)` of inputs
///   (any) and outputs to participants other than `p`.
pub fn reduce_step(sub: &mut Prefix, sup: &mut Prefix) -> Reduction {
    // The element at `start` is live whenever there is one.
    let head_index = sub.start;
    let Some(&head) = sub.actions.get(head_index) else {
        return Reduction::Blocked;
    };
    debug_assert!(!sub.flagged[head_index], "the head is live");
    let direction = head.direction;
    for index in sup.start..sup.actions.len() {
        if sup.flagged[index] {
            continue;
        }
        let action = &sup.actions[index];
        if action.direction == direction && action.peer == head.peer && action.label == head.label {
            if !sorts_compatible(&head, action) {
                // Same action with incompatible payload: a permanent
                // obstacle (it is in neither A(p) nor B(p), and precedes
                // any later match).
                return Reduction::DeadEnd;
            }
            sub.remove(head_index);
            sup.remove(index);
            return Reduction::Progress;
        }
        let context_ok = match direction {
            // A(p): inputs from participants other than p.
            Direction::Receive => {
                action.direction == Direction::Receive && action.peer != head.peer
            }
            // B(p): any inputs, and outputs to participants other than p.
            Direction::Send => action.direction == Direction::Receive || action.peer != head.peer,
        };
        if !context_ok {
            return Reduction::DeadEnd;
        }
    }
    Reduction::Blocked
}

/// Exhaustively reduces the pair; returns `false` on a dead end.
pub fn reduce(sub: &mut Prefix, sup: &mut Prefix) -> bool {
    loop {
        match reduce_step(sub, sup) {
            Reduction::Progress => continue,
            Reduction::Blocked => return true,
            Reduction::DeadEnd => return false,
        }
    }
}

/// Payload compatibility for matched actions: receives are contravariant
/// (`[ref-in]`: the supertype's sort must be a subsort of the subtype's),
/// sends covariant (`[ref-out]`).
fn sorts_compatible(sub: &Action, sup: &Action) -> bool {
    match sub.direction {
        Direction::Receive => sup.sort.is_subsort_of(&sub.sort),
        Direction::Send => sub.sort.is_subsort_of(&sup.sort),
    }
}

/// Convenience constructor used by tests: builds a prefix from actions.
pub fn prefix_of(actions: impl IntoIterator<Item = Action>) -> Prefix {
    let mut prefix = Prefix::default();
    for action in actions {
        prefix.push(action);
    }
    prefix
}

#[cfg(test)]
mod tests {
    use super::*;
    use theory::sort::Sort;

    fn send(peer: &str, label: &str) -> Action {
        Action::send(peer, label, Sort::Unit)
    }

    fn recv(peer: &str, label: &str) -> Action {
        Action::receive(peer, label, Sort::Unit)
    }

    /// The prefixes of `sub` and `sup`.
    fn prefixes(sub: &[Action], sup: &[Action]) -> (Prefix, Prefix) {
        (
            prefix_of(sub.iter().copied()),
            prefix_of(sup.iter().copied()),
        )
    }

    /// Example 4 of the paper: `⟨p!ℓ2.p?ℓ1 ⌈⌋ p?ℓ1.p!ℓ2⟩` reduces via
    /// `[)B]` with `B(p) = p?ℓ1`, then `[)i]`.
    #[test]
    fn example4_safe_reordering_reduces() {
        let (mut sub, mut sup) = prefixes(
            &[send("p", "l2"), recv("p", "l1")],
            &[recv("p", "l1"), send("p", "l2")],
        );
        assert!(reduce(&mut sub, &mut sup));
        assert!(sub.is_empty());
        assert!(sup.is_empty());
    }

    /// Example 4, unsafe direction: `A(q)` may not contain an output, so
    /// the head input cannot cross it — fail-early fires.
    #[test]
    fn example4_unsafe_reordering_dead_ends() {
        let (mut sub, mut sup) = prefixes(
            &[recv("q", "l2"), send("q", "l1")],
            &[send("q", "l1"), recv("q", "l2")],
        );
        assert_eq!(reduce_step(&mut sub, &mut sup), Reduction::DeadEnd);
    }

    #[test]
    fn identical_heads_erase() {
        let actions = [recv("p", "a"), send("q", "b")];
        let (mut sub, mut sup) = prefixes(&actions, &actions);
        assert!(reduce(&mut sub, &mut sup));
        assert!(sub.is_empty() && sup.is_empty());
    }

    #[test]
    fn input_cannot_cross_same_peer_input() {
        let (mut sub, mut sup) = prefixes(&[recv("p", "a")], &[recv("p", "b"), recv("p", "a")]);
        assert_eq!(reduce_step(&mut sub, &mut sup), Reduction::DeadEnd);
    }

    #[test]
    fn output_can_cross_inputs_and_foreign_outputs() {
        let (mut sub, mut sup) = prefixes(
            &[send("p", "a")],
            &[recv("p", "x"), send("q", "y"), send("p", "a")],
        );
        assert_eq!(reduce_step(&mut sub, &mut sup), Reduction::Progress);
        // The B(p) context stays behind.
        assert_eq!(sup.len(), 2);
        assert!(sub.is_empty());
    }

    #[test]
    fn blocked_when_no_match_yet() {
        let (mut sub, mut sup) = prefixes(&[send("p", "a")], &[recv("q", "x")]);
        assert_eq!(reduce_step(&mut sub, &mut sup), Reduction::Blocked);
    }

    #[test]
    fn snapshot_revert_restores_midlist_removals() {
        let actions = [
            recv("a", "1"),
            recv("b", "2"),
            recv("c", "3"),
            recv("d", "4"),
        ];
        let mut prefix = prefix_of(actions[..3].iter().copied());
        let snapshot = prefix.snapshot();
        prefix.remove(1); // mid-list: flagged
        prefix.remove(0); // head: start advances past flagged idx 1
        assert_eq!(prefix.len(), 1);
        prefix.push(actions[3]);
        prefix.revert(snapshot);
        assert_eq!(prefix.len(), 3);
        assert_eq!(
            prefix
                .live()
                .map(|(_, a)| a.label.as_str())
                .collect::<Vec<_>>(),
            vec!["1", "2", "3"]
        );
    }

    #[test]
    fn matches_snapshot_on_periodic_consumption() {
        // Simulate one loop iteration that consumes exactly what it adds.
        // An action made twice is the same action: comparison is by value.
        let (first, second) = (recv("p", "l"), recv("p", "l"));
        let mut prefix = Prefix::default();
        prefix.push(first);
        let before = prefix.snapshot();
        prefix.push(second);
        prefix.remove(0);
        assert!(prefix.matches_snapshot(before));
    }

    #[test]
    fn hanging_action_fails_snapshot_match() {
        // A q?l' that is never consumed makes the live range longer than
        // the recorded one.
        let hanging = recv("q", "lp");
        let looped = recv("p", "l");
        let mut prefix = Prefix::default();
        prefix.push(hanging);
        let before = prefix.snapshot();
        prefix.push(looped);
        assert!(!prefix.matches_snapshot(before));
    }

    #[test]
    fn sort_contravariance_in_reduction() {
        let wide = [Action::receive("p", "l", Sort::I64)];
        let narrow = [Action::receive("p", "l", Sort::U32)];
        let (mut sub, mut sup) = prefixes(&wide, &narrow);
        assert_eq!(reduce_step(&mut sub, &mut sup), Reduction::Progress);

        let (mut sub, mut sup) = prefixes(&narrow, &wide);
        assert_eq!(reduce_step(&mut sub, &mut sup), Reduction::DeadEnd);
    }
}
