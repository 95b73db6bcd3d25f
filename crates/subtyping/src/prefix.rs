//! SISO prefixes `π` and the reduction relation `⟨π ⌈⌋ π′⟩  ⟨…⟩`
//! (paper Definition 3), in the lazily-removable representation of
//! Appendix B.5.
//!
//! A prefix is a grow-only list of elements, each an action and a flag.
//! Elements are consumed either by advancing `start` (when the head is
//! consumed) or by flagging them removed (when a reduction consumes an
//! element in the middle — the `[)A]`/`[)B]` cases), and every scan walks
//! live elements by index. Besides its elements a prefix is four numbers —
//! its length, `start`, the length of its removal log and its scan
//! watermark — and those four are its [`Snapshot`]: taking one copies
//! them, and reverting to one un-flags what the log says was flagged since
//! and copies them back, so the depth-first visitor reverts without
//! copying an element. The log needs no buffer of its own: a prefix never
//! flags more elements than it holds, so the `k`-th element carries the
//! `k`-th log entry. Actions' names are interned, so pushing and reverting
//! never touch a reference count and comparing two actions never reads a
//! string.
//!
//! **Where elements live.** A standalone [`Prefix`] keeps its elements,
//! each holding its [`Action`] by value, in a buffer of its own. The
//! subtyping visitor keeps both prefixes of its pair in its path's frames,
//! one depth a frame, since each of its visits pushes one action onto
//! each prefix, and an element there is the row of its action in its
//! machine. The reduction and every edit are written once, over
//! `Elements`, and serve both.
//!
//! **Incremental scan.** Reduction is driven by the subtype prefix's
//! head, compared with the supertype prefix's live elements in order until
//! one matches it or leaves its context. When a scan ends blocked, every
//! supertype element it passed neither matches the head nor leaves its
//! context, and stays so: those facts depend on the two actions alone,
//! removals only shrink the set, and only a match — which changes the head
//! — removes anything. So the subtype prefix keeps a watermark, the
//! supertype index its head has been compared up to, and the next scan
//! for the same head starts there: after a visit pushes one action onto
//! each side, it reads the one new supertype action instead of the whole
//! prefix. The watermark is exact because it is reset whenever the head
//! changes, and because it is part of the snapshot, so a revert restores
//! it with the elements it describes. The head changes when it is
//! consumed, which resets the watermark to 0 for the element behind it;
//! an action pushed onto an empty prefix becomes a fresh head too, and
//! finds the watermark at 0 already, since an empty prefix's watermark is
//! the one the consumption of its last head left, or the initial one.

use std::ops::Range;

use theory::fsm::{Action, Direction};

/// A prefix's state besides its elements, which is all a recorded point
/// in its history needs ([`Prefix::snapshot`]); the visitor keeps its
/// prefixes as two of these over its frames.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Number of elements.
    len: u32,
    /// Elements before `start` are consumed (a cheap bulk form of
    /// removal); the element at `start`, if any, is live.
    start: u32,
    /// Length of the removal log.
    removed: u32,
    /// The head has been compared with the partner prefix's elements
    /// before this index: each live one neither matches it nor leaves its
    /// context.
    scanned: u32,
}

/// One element of a standalone [`Prefix`].
#[derive(Clone, Copy, Debug)]
struct Element {
    action: Action,
    /// Lazily removed.
    flagged: bool,
    /// Not this element's: the index the `k`-th flagging removed, in the
    /// `k`-th element (the removal log).
    logged: u32,
}

/// Where a pair of prefixes keeps its elements: side 0 is the subtype's
/// prefix, side 1 the supertype's. An element is an action and a removal
/// flag; the `k`-th element also carries the `k`-th entry of its prefix's
/// removal log.
pub(crate) trait Elements {
    /// The action of element `index` of `side`.
    fn action(&self, side: usize, index: u32) -> &Action;
    /// Whether element `index` of `side` was removed lazily.
    fn flagged(&self, side: usize, index: u32) -> bool;
    /// The action of element `index` of `side`, unless it was removed.
    fn live(&self, side: usize, index: u32) -> Option<&Action> {
        (!self.flagged(side, index)).then(|| self.action(side, index))
    }
    /// Sets the removal flag of element `index` of `side`.
    fn set_flagged(&mut self, side: usize, index: u32, flagged: bool);
    /// Whether the element ranges `a` and `b` of `side`, of one length,
    /// hold equal actions and flags, element by element.
    fn same(&self, side: usize, a: Range<u32>, b: Range<u32>) -> bool {
        a.zip(b).all(|(a, b)| {
            self.flagged(side, a) == self.flagged(side, b)
                && self.action(side, a) == self.action(side, b)
        })
    }
    /// The `entry`-th entry of `side`'s removal log.
    fn logged(&self, side: usize, entry: u32) -> u32;
    /// Sets the `entry`-th entry of `side`'s removal log.
    fn set_logged(&mut self, side: usize, entry: u32, index: u32);
}

/// The buffers of two standalone prefixes, the subtype's first; edited
/// alone, a standalone prefix is side 0 beside an empty side 1.
struct Buffers<'a>([&'a mut [Element]; 2]);

impl Buffers<'_> {
    fn at(&self, side: usize, index: u32) -> &Element {
        &self.0[side][index as usize]
    }

    fn at_mut(&mut self, side: usize, index: u32) -> &mut Element {
        &mut self.0[side][index as usize]
    }
}

impl Elements for Buffers<'_> {
    fn action(&self, side: usize, index: u32) -> &Action {
        &self.at(side, index).action
    }

    fn flagged(&self, side: usize, index: u32) -> bool {
        self.at(side, index).flagged
    }

    fn set_flagged(&mut self, side: usize, index: u32, flagged: bool) {
        self.at_mut(side, index).flagged = flagged;
    }

    fn logged(&self, side: usize, entry: u32) -> u32 {
        self.at(side, entry).logged
    }

    fn set_logged(&mut self, side: usize, entry: u32, index: u32) {
        self.at_mut(side, entry).logged = index;
    }
}

/// One prefix of a pair: its state and where its elements are.
pub(crate) struct Side<'a, E: Elements> {
    pub(crate) state: &'a mut Snapshot,
    pub(crate) elements: E,
    pub(crate) side: usize,
}

impl<E: Elements> Side<'_, E> {
    /// Counts in the element just written at the prefix's end. Pushed
    /// onto an empty prefix, it is a fresh head, and the watermark is
    /// already 0: the head consumed last reset it.
    pub(crate) fn pushed(&mut self) {
        debug_assert!(self.state.start < self.state.len || self.state.scanned == 0);
        self.state.len += 1;
    }

    /// True when no live elements remain: the element at `start` is live
    /// whenever there is one.
    pub(crate) fn is_empty(&self) -> bool {
        self.state.start == self.state.len
    }

    /// Removes the element at `index`; see [`remove`].
    fn remove(&mut self, index: u32) {
        remove(self.state, &mut self.elements, self.side, index);
    }

    /// Restores the prefix to `snapshot`: un-flags every element removed
    /// since and resets its state, watermark included.
    pub(crate) fn revert(&mut self, snapshot: Snapshot) {
        for entry in snapshot.removed..self.state.removed {
            let index = self.elements.logged(self.side, entry);
            self.elements.set_flagged(self.side, index, false);
        }
        *self.state = snapshot;
    }

    /// The `[asm]` termination check; see [`matches_snapshot`].
    pub(crate) fn matches_snapshot(&self, snapshot: Snapshot) -> bool {
        let (elements, side) = (&self.elements, self.side);
        matches_snapshot(self.state, snapshot, |a, b| elements.same(side, a, b))
    }
}

/// Removes the element at `index`, which must be live, from the prefix
/// `side` of `elements` whose state is `state`.
///
/// Maintains the invariant that the element at `start` is never flagged:
/// removing the head advances `start` past any flagged run, and leaves a
/// head compared with nothing.
fn remove(state: &mut Snapshot, elements: &mut impl Elements, side: usize, index: u32) {
    debug_assert!(index >= state.start);
    debug_assert!(!elements.flagged(side, index), "double removal at {index}");
    if index == state.start {
        state.start += 1;
        state.scanned = 0;
    } else {
        elements.set_flagged(side, index, true);
        elements.set_logged(side, state.removed, index);
        state.removed += 1;
    }
    while state.start < state.len && elements.flagged(side, state.start) {
        state.start += 1;
    }
}

/// The `[asm]` termination check of Appendix B.5, Eq. (2), on a prefix
/// whose state is `state` and whose element ranges `a` and `b`, of one
/// length, hold equal actions and flags when `same(a, b)`:
///
/// ```text
/// elements[start..len] == elements[snapshot.start..snapshot.len]
/// ```
///
/// Both ranges are compared, actions and flags, with their *current*
/// flags; a supertype action that "hangs on" without ever being consumed
/// makes the left range strictly longer, failing the check — this is what
/// rejects subtypes that forget actions (Fig A.14).
fn matches_snapshot(
    state: &Snapshot,
    snapshot: Snapshot,
    same: impl Fn(Range<u32>, Range<u32>) -> bool,
) -> bool {
    let (current, recorded) = (state.start..state.len, snapshot.start..snapshot.len);
    current.len() == recorded.len() && same(current, recorded)
}

/// A prefix `π`: the sequence of actions the algorithm has traversed but
/// not yet matched between subtype and supertype.
#[derive(Clone, Debug, Default)]
pub struct Prefix {
    state: Snapshot,
    /// Every element pushed, in order; those at `state.len` and beyond
    /// were reverted and are overwritten by the next pushes.
    elements: Vec<Element>,
}

impl Prefix {
    /// Runs `edit` on this prefix, side 0 of a pair whose side 1 is
    /// empty.
    fn edit(&mut self, edit: impl FnOnce(&mut Side<'_, Buffers<'_>>)) {
        edit(&mut Side {
            state: &mut self.state,
            elements: Buffers([&mut self.elements, &mut []]),
            side: 0,
        })
    }

    /// Appends an action to the prefix.
    pub fn push(&mut self, action: Action) {
        let len = self.state.len as usize;
        assert!(len < u32::MAX as usize, "fewer than 2³² actions");
        let element = Element {
            action,
            flagged: false,
            logged: 0,
        };
        if len == self.elements.len() {
            self.elements.push(element);
        } else {
            self.elements[len] = element;
        }
        self.edit(|prefix| prefix.pushed());
    }

    /// True when no live elements remain.
    pub fn is_empty(&self) -> bool {
        self.state.start == self.state.len
    }

    /// Number of live elements.
    pub fn len(&self) -> usize {
        self.live().count()
    }

    /// Iterates over `(index, action)` for live elements, in order.
    pub fn live(&self) -> impl Iterator<Item = (usize, &Action)> {
        (self.state.start as usize..self.state.len as usize)
            .filter(|&index| !self.elements[index].flagged)
            .map(|index| (index, &self.elements[index].action))
    }

    /// Removes the element at `index` (which must be live).
    ///
    /// Maintains the invariant that the element at `start` is never
    /// flagged: removing the head advances `start` past any flagged run.
    pub fn remove(&mut self, index: usize) {
        assert!(index < self.state.len as usize, "no element {index}");
        self.edit(|prefix| prefix.remove(index as u32));
    }

    /// Records the current state for a later [`Prefix::revert`].
    pub fn snapshot(&self) -> Snapshot {
        self.state
    }

    /// Restores the prefix to `snapshot`: un-flags every element removed
    /// since, drops appended elements and resets `start`.
    pub fn revert(&mut self, snapshot: Snapshot) {
        self.edit(|prefix| prefix.revert(snapshot));
    }

    /// The `[asm]` termination check of Appendix B.5, Eq. (2): the range
    /// live now equals the range live at `snapshot`, both read with their
    /// current flags.
    pub fn matches_snapshot(&self, snapshot: Snapshot) -> bool {
        let range = |range: Range<u32>| &self.elements[range.start as usize..range.end as usize];
        matches_snapshot(&self.state, snapshot, |a, b| {
            let same =
                |(a, b): (&Element, &Element)| a.flagged == b.flagged && a.action == b.action;
            range(a).iter().zip(range(b)).all(same)
        })
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
    let mut elements = Buffers([&mut sub.elements, &mut sup.elements]);
    reduce_pair_step(&mut sub.state, &mut sup.state, &mut elements)
}

/// [`reduce_step`] on the prefix pair whose states are `sub` and `sup`
/// and whose elements are in `elements`. The scan starts at the subtype
/// head's watermark (see the module docs).
fn reduce_pair_step(
    sub: &mut Snapshot,
    sup: &mut Snapshot,
    elements: &mut impl Elements,
) -> Reduction {
    if sub.start == sub.len {
        return Reduction::Blocked;
    }
    let head_index = sub.start;
    let head = *elements.action(0, head_index);
    debug_assert!(!elements.flagged(0, head_index), "the head is live");
    let direction = head.direction;
    for index in sub.scanned.max(sup.start)..sup.len {
        let Some(action) = elements.live(1, index) else {
            continue;
        };
        if action.direction == direction && action.peer == head.peer && action.label == head.label {
            if !sorts_compatible(&head, action) {
                // Same action with incompatible payload: a permanent
                // obstacle (it is in neither A(p) nor B(p), and precedes
                // any later match).
                sub.scanned = index;
                return Reduction::DeadEnd;
            }
            remove(sub, elements, 0, head_index);
            remove(sup, elements, 1, index);
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
            sub.scanned = index;
            return Reduction::DeadEnd;
        }
    }
    sub.scanned = sup.len;
    Reduction::Blocked
}

/// Exhaustively reduces the pair; returns `false` on a dead end.
pub fn reduce(sub: &mut Prefix, sup: &mut Prefix) -> bool {
    let mut elements = Buffers([&mut sub.elements, &mut sup.elements]);
    reduce_pair(&mut sub.state, &mut sup.state, &mut elements)
}

/// [`reduce`] on the prefix pair whose states are `sub` and `sup` and
/// whose elements are in `elements`.
pub(crate) fn reduce_pair(
    sub: &mut Snapshot,
    sup: &mut Snapshot,
    elements: &mut impl Elements,
) -> bool {
    loop {
        match reduce_pair_step(sub, sup, elements) {
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
