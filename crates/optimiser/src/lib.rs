//! Automatic asynchronous message reordering (AMR) — the paper's core
//! contribution, as a subsystem: take any projected local type (or FSM)
//! and *derive* optimised variants automatically instead of writing them
//! by hand.
//!
//! The pipeline (§2–§3, Fig 1b):
//!
//! 1. **generate** — close the projection under the send-hoisting
//!    rewrites of [`rewrite`] (commute a send past preceding receives
//!    from other roles, and anticipate loop sends across `rec`
//!    unfoldings up to a configurable depth), breadth-first with
//!    deduplication and budget caps. The search runs on one
//!    [`theory::term`] arena per call, which the projection is interned
//!    into: a rewrite interns only the nodes on its path, equal terms get
//!    equal ids, and ids are dense, so deduplication reads and sets one
//!    flag per id (structural identity — the printed form's, except that
//!    a custom sort spelled like a built-in one stays apart), in the
//!    rewrite walk, before a duplicate's step is built;
//! 2. **verify** — validate every candidate against the projection with
//!    the sound asynchronous subtyping algorithm, so only provably safe
//!    reorderings survive. Each candidate is checked as the machine
//!    [`Terms::machine`] builds from its arena id — the one builder,
//!    which `fsm::from_local` runs too — against the projection's,
//!    through one reused `subtyping::SubtypeVisitor`. A verified
//!    [`Candidate`] keeps the machine just checked, its arena id and its
//!    generation record; its score and saving are summed along the
//!    record's parent chain, root to leaf, without copying a step;
//! 3. **score** — rank the verified candidates by *estimated nanoseconds
//!    saved* under the [`cost`] price list (each crossed receive weighted
//!    by its payload's wire size, minus the occupancy of hoisting the
//!    payload earlier), then by receives crossed, then towards smaller
//!    machines;
//! 4. **report** — return the best verified subtype plus a
//!    machine-readable [`Report`] of the whole search. The [`Optimised`]
//!    outcome keeps the search's arena and generation records, so a
//!    candidate's [`LocalType`] ([`Optimised::local`]) and derivation
//!    ([`Optimised::derivation`]) are built only when they are asked for:
//!    by the report, by emission of the winner, or by a test.
//!
//! Candidates whose hoisted payload data-depends on a crossed receive
//! (the forwarding shape `p?value(S)…q!value(S)`) are pruned during
//! generation — protocol-sound but unimplementable without inventing
//! the payload; see [`rewrite`]. The report counts them.
//!
//! ```
//! use optimiser::{optimise, Config};
//! use theory::local;
//!
//! // The projected double-buffering kernel Mk (paper Fig 4a)...
//! let projected = local::parse("rec x . s!ready . s?value . t?ready . t!value . x").unwrap();
//! let outcome = optimise(&"k".into(), &projected, &Config::with_depth(1)).unwrap();
//! // ...contains the hand-derived optimised kernel M'k (Fig 4b) among
//! // its verified candidates, each a proven subtype of the projection.
//! let fig4b = local::parse("s!ready . rec x . s!ready . s?value . t?ready . t!value . x").unwrap();
//! assert!(outcome.candidates.iter().any(|c| outcome.local(c) == fig4b));
//! assert!(outcome.best().is_some());
//! ```

pub mod cost;
pub mod rewrite;

use subtyping::SubtypeVisitor;
use theory::fsm::{self, Fsm, FsmError};
use theory::json;
use theory::json_record;
use theory::local::LocalType;
use theory::name::Name;
use theory::term::{TermId, Terms};

pub use rewrite::Step;

/// Search budgets for the candidate generation and verification.
#[derive(Clone, Debug)]
pub struct Config {
    /// Maximum loop anticipations per candidate — how many `rec`
    /// unfoldings a send may be hoisted across (the pipeline depth, the
    /// CLI's `--bound`).
    pub unfold_depth: usize,
    /// Maximum rewrite steps per candidate derivation.
    pub max_steps: usize,
    /// Maximum number of candidates generated before the search stops
    /// (the report records whether this cap was hit).
    pub max_candidates: usize,
    /// Recursion-unrolling bound handed to the subtype checker; deeper
    /// anticipation needs a larger bound.
    pub bound: usize,
}

impl Config {
    /// Budgets for an optimisation of pipeline depth `depth`: up to
    /// `depth` anticipations per loop, enough rewrite steps to move a
    /// send across a handful of actions, and a subtype bound with slack
    /// to discharge the deepest anticipation.
    pub fn with_depth(depth: usize) -> Self {
        Config {
            unfold_depth: depth,
            max_steps: depth.max(4),
            max_candidates: 512,
            bound: depth + 4,
        }
    }
}

impl Default for Config {
    /// The CLI default: single anticipation (double buffering).
    fn default() -> Self {
        Config::with_depth(1)
    }
}

/// One verified reordering of the projection: a term of the search's
/// arena, whose local type and derivation the [`Optimised`] it came from
/// builds on demand ([`Optimised::local`], [`Optimised::derivation`]).
#[derive(Clone, Debug)]
pub struct Candidate {
    /// The reordered term.
    term: TermId,
    /// Its generation record, the last step of its derivation.
    entry: usize,
    /// Its FSM (what emission and k-MC consume).
    pub fsm: Fsm,
    /// Σ of step scores: receives that sends were moved ahead of.
    pub score: usize,
    /// Estimated nanoseconds the reordering saves ([`cost::saving_ns`]
    /// of the derivation). Can be negative — an occupancy penalty
    /// outweighing the crossing benefit.
    pub estimated_saving_ns: f64,
    /// Statistics of the subtype check that verified it.
    pub stats: subtyping::CheckStats,
}

/// The outcome of one optimisation run for a single role.
#[derive(Clone, Debug)]
pub struct Optimised {
    /// The role the projection belongs to.
    pub role: Name,
    /// The input projection.
    pub projection: LocalType,
    /// The projection's FSM (the supertype every candidate was checked
    /// against).
    pub projection_fsm: Fsm,
    /// Candidates generated (before verification).
    pub generated: usize,
    /// Rewrite applications dropped by data-dependence pruning.
    pub pruned: usize,
    /// Verified candidates, best first (estimated saving desc, then
    /// score desc, fewer states, generation order).
    pub candidates: Vec<Candidate>,
    /// True when generation stopped at [`Config::max_candidates`].
    pub truncated: bool,
    /// The subtype bound the candidates were verified with.
    pub bound: usize,
    /// The search's arena, which holds every candidate's term.
    terms: Terms,
    /// One record per generated candidate, in generation order.
    generation: Vec<Generated>,
}

impl Optimised {
    /// The best verified candidate that strictly improves on the
    /// projection, if any: the first ranked one, when its estimated
    /// saving is positive.
    pub fn best(&self) -> Option<&Candidate> {
        self.candidates
            .first()
            .filter(|c| c.estimated_saving_ns > 0.0)
    }

    /// The reordered local type of `candidate`, one of
    /// [`candidates`](Self::candidates).
    pub fn local(&self, candidate: &Candidate) -> LocalType {
        self.terms.to_local(candidate.term)
    }

    /// The rewrite steps that produced `candidate`, in application order.
    pub fn derivation(&self, candidate: &Candidate) -> Vec<Step> {
        let mut steps: Vec<Step> = chain(&self.generation, candidate.entry)
            .map(|entry| entry.step.clone())
            .collect();
        steps.reverse();
        steps
    }

    /// The local type to emit: the best improving candidate, or the
    /// projection unchanged.
    pub fn best_local(&self) -> LocalType {
        self.best()
            .map_or_else(|| self.projection.clone(), |c| self.local(c))
    }

    /// The FSM matching [`best_local`](Self::best_local).
    pub fn best_fsm(&self) -> &Fsm {
        self.best().map_or(&self.projection_fsm, |c| &c.fsm)
    }

    /// Condenses the run into the machine-readable [`Report`].
    pub fn report(&self) -> Report {
        let saving = |c: &Candidate| json::rounded(c.estimated_saving_ns, 1);
        let best = self.best().map(|c| BestCandidate {
            local: self.local(c).to_string(),
            score: c.score,
            states: c.fsm.len(),
            visited_pairs: c.stats.visited_pairs,
            estimated_saving_ns: saving(c),
            derivation: self.derivation(c).iter().map(Step::to_string).collect(),
        });
        Report {
            role: self.role.to_string(),
            projection: self.projection.to_string(),
            generated: self.generated,
            pruned: self.pruned,
            verified: self.candidates.len(),
            truncated: self.truncated,
            bound: self.bound,
            improved: best.is_some(),
            best,
            candidates: self
                .candidates
                .iter()
                .map(|c| CandidateSummary {
                    local: self.local(c).to_string(),
                    score: c.score,
                    states: c.fsm.len(),
                    visited_pairs: c.stats.visited_pairs,
                    estimated_saving_ns: saving(c),
                })
                .collect(),
        }
    }
}

json_record! {
    /// Machine-readable summary of one role's optimisation run: one
    /// element of the array `rumpsteak-gen --optimise --report` writes.
    #[derive(Clone, Debug, PartialEq)]
    pub struct Report {
        /// The optimised role.
        pub role: String,
        /// Textual form of the input projection.
        pub projection: String,
        /// Candidates generated.
        pub generated: usize,
        /// Rewrite applications dropped by data-dependence pruning.
        pub pruned: usize,
        /// Candidates that passed the subtype check.
        pub verified: usize,
        /// Whether generation hit the candidate cap.
        pub truncated: bool,
        /// Subtype bound used for verification.
        pub bound: usize,
        /// Whether the role's type changed, i.e. `best` is present.
        pub improved: bool,
        /// The winning candidate; `None` when no verified candidate
        /// improves on the projection, in which case the projection is
        /// kept.
        pub best: Option<BestCandidate>,
        /// Every verified candidate, in rank order.
        pub candidates: Vec<CandidateSummary>,
    }
}

json_record! {
    /// The winning candidate inside a [`Report`].
    #[derive(Clone, Debug, PartialEq)]
    pub struct BestCandidate {
        /// Textual form of the reordered local type.
        pub local: String,
        /// Receives that sends were moved ahead of.
        pub score: usize,
        /// FSM state count.
        pub states: usize,
        /// State-pair visits of the verifying subtype check.
        pub visited_pairs: usize,
        /// Estimated nanoseconds saved, to one decimal.
        pub estimated_saving_ns: f64,
        /// Human-readable rewrite steps, in application order.
        pub derivation: Vec<String>,
    }
}

json_record! {
    /// One verified candidate inside a [`Report`], in rank order.
    #[derive(Clone, Debug, PartialEq)]
    pub struct CandidateSummary {
        /// Textual form of the reordered local type.
        pub local: String,
        /// Receives that sends were moved ahead of.
        pub score: usize,
        /// FSM state count.
        pub states: usize,
        /// State-pair visits of the verifying subtype check.
        pub visited_pairs: usize,
        /// Estimated nanoseconds saved, to one decimal.
        pub estimated_saving_ns: f64,
    }
}

/// Derives verified AMR reorderings of `projection` for `role`.
///
/// Errors only when the projection itself is not FSM-convertible
/// (unguarded or unbound recursion); candidates that fail conversion are
/// silently dropped, and candidates that fail verification are counted
/// but not returned.
pub fn optimise(
    role: &Name,
    projection: &LocalType,
    config: &Config,
) -> Result<Optimised, FsmError> {
    let mut terms = Terms::default();
    let root = terms.intern_local(projection);
    let mut projection_machine = Fsm::new(*role);
    terms.machine(root, &mut projection_machine)?;

    // ---- generate: breadth-first closure under the rewrites ----------
    let mut generated: Vec<Generated> = Vec::new();
    // Entries of `generated` to expand next; `None` is the projection.
    let mut frontier: Vec<Option<usize>> = vec![None];
    let mut next = Vec::new();
    // One walk for every expansion, so its buffers are reused. It keeps
    // one flag per arena id (ids are dense, and the search only adds) and
    // returns each candidate at its first occurrence only.
    let mut walk = rewrite::Walk::first_occurrences(root);
    let mut truncated = false;
    let mut pruned = 0usize;
    'search: while !frontier.is_empty() {
        for &parent in &frontier {
            let (term, depth, anticipations) = parent.map_or((root, 0, 0), |index| {
                let entry = &generated[index];
                (entry.term, entry.depth, entry.anticipations)
            });
            if depth >= config.max_steps {
                continue;
            }
            walk.run(&mut terms, term, anticipations < config.unfold_depth);
            pruned += walk.found.pruned;
            for (candidate, step) in walk.found.candidates.drain(..) {
                let anticipated = matches!(step, Step::Anticipate { .. });
                generated.push(Generated {
                    term: candidate,
                    parent,
                    step,
                    depth: depth + 1,
                    anticipations: anticipations + usize::from(anticipated),
                });
                if generated.len() >= config.max_candidates {
                    truncated = true;
                    break 'search;
                }
                next.push(Some(generated.len() - 1));
            }
        }
        std::mem::swap(&mut frontier, &mut next);
        next.clear();
    }

    // ---- verify: every candidate against the projection --------------
    // As machines of the arena, rebuilt in one buffer, through one
    // visitor; a verified candidate keeps its machine, its arena id and
    // its generation record, from which its score and saving are summed.
    let mut machine = Fsm::new(*role);
    let mut visitor = SubtypeVisitor::new(config.bound);
    let mut candidates = Vec::new();
    let mut steps: Vec<&Step> = Vec::new();
    for (index, entry) in generated.iter().enumerate() {
        // A rewrite cannot unguard recursion (no action is ever
        // removed), but stay defensive: drop inconvertible candidates.
        if terms.machine(entry.term, &mut machine).is_err() {
            continue;
        }
        let stats = visitor.check(&machine, &projection_machine);
        if !stats.verdict {
            continue;
        }
        steps.clear();
        steps.extend(chain(&generated, index).map(|entry| &entry.step));
        candidates.push(Candidate {
            term: entry.term,
            entry: index,
            fsm: machine.clone(),
            score: steps.iter().map(|step| step.score()).sum(),
            // In application order, so the sum's bits are the
            // derivation's (`cost::saving_ns` of it).
            estimated_saving_ns: cost::saving_ns(steps.iter().rev().copied()),
            stats,
        });
    }

    // ---- score: best first, stably --------------------------------
    // Estimated ns saved, tie-broken by receives crossed then by machine
    // size — a cheap reordering outranks a bulky one even when they
    // cross the same number of receives. The sort is stable, so equal
    // keys keep generation order: earlier-generated candidates win ties.
    candidates.sort_by(|a, b| {
        b.estimated_saving_ns
            .total_cmp(&a.estimated_saving_ns)
            .then(b.score.cmp(&a.score))
            .then(a.fsm.len().cmp(&b.fsm.len()))
    });

    Ok(Optimised {
        role: *role,
        projection: projection.clone(),
        projection_fsm: projection_machine,
        generated: generated.len(),
        pruned,
        candidates,
        truncated,
        bound: config.bound,
        terms,
        generation: generated,
    })
}

/// One generated candidate: its term, the entry it was rewritten from
/// (`None` for the projection), the step that did it, and its
/// derivation's length and anticipations.
#[derive(Clone, Debug)]
struct Generated {
    term: TermId,
    parent: Option<usize>,
    step: Step,
    depth: usize,
    anticipations: usize,
}

/// The records from `generation[index]` back to the projection: a
/// derivation, last step first.
fn chain(generation: &[Generated], index: usize) -> impl Iterator<Item = &Generated> {
    std::iter::successors(Some(&generation[index]), |entry| {
        entry.parent.map(|at| &generation[at])
    })
}

/// [`optimise`] for a projection already in FSM form (e.g. a type
/// serialised back out of the runtime, the bottom-up workflow of
/// Fig 1b).
pub fn optimise_fsm(projection: &Fsm, config: &Config) -> Result<Optimised, FsmError> {
    let local = fsm::to_local(projection)?;
    optimise(&projection.role, &local, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use theory::json::{Json, Value};
    use theory::local::parse;

    fn run(projection: &str, depth: usize) -> Optimised {
        optimise(
            &"self".into(),
            &parse(projection).unwrap(),
            &Config::with_depth(depth),
        )
        .unwrap()
    }

    #[test]
    fn every_candidate_is_a_verified_subtype() {
        let outcome = run("rec x . s!ready . s?value . t?ready . t!value . x", 2);
        assert!(outcome.generated > outcome.candidates.len());
        for candidate in &outcome.candidates {
            assert!(candidate.stats.verdict);
            assert!(subtyping::is_subtype(
                &candidate.fsm,
                &outcome.projection_fsm,
                outcome.bound
            ));
        }
        // ...and what is built on demand matches what was stored, for the
        // kernel, a bulky send hoisted across three receives one at a
        // time (whose savings, summed leaf to root, differ in the last
        // bit), and every corpus protocol's roles at bounds 1 to 3.
        on_demand_matches_stored(&outcome);
        on_demand_matches_stored(&run("q?b . r?c . r?d(i32) . p!c(buf) . end", 1));
        for path in corpus() {
            let source = std::fs::read_to_string(&path).unwrap();
            // The `--param name=value` bindings of its header line.
            let bindings = source
                .lines()
                .next()
                .and_then(|line| line.strip_prefix("// rumpsteak-gen:"))
                .into_iter()
                .flat_map(str::split_whitespace)
                .filter_map(|word| word.split_once('='))
                .map(|(name, value)| (Name::from(name), value.parse().unwrap()))
                .collect();
            let template = theory::scribble::parse_template(&source).unwrap();
            let protocol = template.instantiate(&bindings).unwrap();
            for role in &protocol.roles {
                let projection = theory::projection::project(&protocol.body, role).unwrap();
                for depth in 1..=3 {
                    let config = Config::with_depth(depth);
                    on_demand_matches_stored(&optimise(role, &projection, &config).unwrap());
                }
            }
        }
    }

    /// Every `.scr` protocol of the code generator's test corpus.
    fn corpus() -> Vec<std::path::PathBuf> {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../codegen/tests/protocols");
        let mut paths: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .map(|entry| entry.unwrap().path())
            .filter(|path| path.extension().is_some_and(|e| e == "scr"))
            .collect();
        paths.sort();
        assert!(!paths.is_empty(), "no protocols under {dir}");
        paths
    }

    /// Each candidate's machine, score and saving equal those of the
    /// local type and derivation built for it on demand; the saving to
    /// the bit, so a sum taken leaf to root shows.
    fn on_demand_matches_stored(outcome: &Optimised) {
        for candidate in &outcome.candidates {
            let local = outcome.local(candidate);
            let derivation = outcome.derivation(candidate);
            assert_eq!(
                fsm::from_local(&outcome.role, &local).unwrap(),
                candidate.fsm,
                "`{local}`"
            );
            assert_eq!(
                derivation.iter().map(Step::score).sum::<usize>(),
                candidate.score,
                "`{local}`"
            );
            assert_eq!(
                cost::saving_ns(&derivation).to_bits(),
                candidate.estimated_saving_ns.to_bits(),
                "`{local}`"
            );
        }
    }

    #[test]
    fn double_buffering_kernel_fig4b_is_derived() {
        let outcome = run("rec x . s!ready . s?value . t?ready . t!value . x", 1);
        let fig4b = parse("s!ready . rec x . s!ready . s?value . t?ready . t!value . x").unwrap();
        assert!(outcome.candidates.iter().any(|c| outcome.local(c) == fig4b));
        // The winner strictly improves and is itself verified.
        let best = outcome.best().expect("kernel admits an optimisation");
        assert!(best.score >= 1);
    }

    #[test]
    fn ring_participant_best_is_the_swapped_loop() {
        // Fig 7 ring at unfold depth 0 (pure reordering, the paper's
        // variant): receive-then-send becomes send-then-receive.
        let outcome = run("rec x . p?v . q!v . x", 0);
        assert_eq!(
            outcome.local(outcome.best().expect("ring optimises")),
            parse("rec x . q!v . p?v . x").unwrap()
        );
    }

    #[test]
    fn deeper_unfolds_pipeline_the_ring_further() {
        // With an unfold budget the search composes the swap with loop
        // anticipation: two values in flight instead of one. The paper's
        // depth-0 form is still among the verified candidates.
        let outcome = run("rec x . p?v . q!v . x", 1);
        let swapped = parse("rec x . q!v . p?v . x").unwrap();
        assert!(outcome
            .candidates
            .iter()
            .any(|c| outcome.local(c) == swapped));
        assert!(outcome.best().expect("ring optimises").score >= 2);
    }

    #[test]
    fn already_optimal_types_are_kept() {
        let outcome = run("rec x . q!v . p?v . x", 0);
        assert!(outcome.best().is_none());
        assert_eq!(
            outcome.best_local(),
            parse("rec x . q!v . p?v . x").unwrap()
        );
        assert!(!outcome.report().improved);
    }

    #[test]
    fn terminating_loops_reject_unbalanced_anticipation() {
        // With an exit branch, prepending a `ready` owes the peer one
        // send too many; every anticipated candidate must be rejected.
        let outcome = run("rec x . q!ready . &{ q?value . x, q?stop . end }", 3);
        assert!(outcome.best().is_none());
        for candidate in &outcome.candidates {
            assert!(
                !outcome
                    .derivation(candidate)
                    .iter()
                    .any(|s| matches!(s, Step::Anticipate { .. })),
                "unsound anticipation slipped through: {}",
                outcome.local(candidate)
            );
        }
    }

    #[test]
    fn choice_hoist_crosses_the_guarding_receive() {
        // The k-buffering source: the value/stop decision moves above the
        // ready receive, so the source streams without blocking.
        let outcome = run("rec l . q?ready . +{ q!value . l, q!stop . end }", 1);
        assert_eq!(
            outcome.local(outcome.best().expect("source optimises")),
            parse("rec l . +{ q!value . q?ready . l, q!stop . q?ready . end }").unwrap()
        );
    }

    #[test]
    fn unfold_depth_caps_anticipation() {
        let projection = "rec x . t?ready . t!value . x";
        for depth in 1..=3 {
            let outcome = run(projection, depth);
            let deepest = outcome
                .candidates
                .iter()
                .map(|c| {
                    outcome
                        .derivation(c)
                        .iter()
                        .filter(|s| matches!(s, Step::Anticipate { .. }))
                        .count()
                })
                .max()
                .unwrap_or(0);
            assert_eq!(deepest, depth, "depth {depth}");
        }
    }

    #[test]
    fn optimise_fsm_round_trips() {
        let projection = parse("rec x . p?v . q!v . x").unwrap();
        let machine = fsm::from_local(&"r".into(), &projection).unwrap();
        let outcome = optimise_fsm(&machine, &Config::with_depth(0)).unwrap();
        // `to_local` renames recursion variables, so compare machines.
        assert_eq!(
            fsm::from_local(&"r".into(), &outcome.best_local()).unwrap(),
            fsm::from_local(&"r".into(), &parse("rec x . q!v . p?v . x").unwrap()).unwrap()
        );
    }

    /// Rank of the candidate whose textual form is `local`.
    fn position(outcome: &Optimised, local: &str) -> usize {
        outcome
            .candidates
            .iter()
            .position(|c| outcome.local(c).to_string() == local)
            .unwrap_or_else(|| panic!("candidate `{local}` not among the verified"))
    }

    #[test]
    fn cost_model_ranks_cheap_payload_hoists_above_bulky_ones() {
        // Two hoists, each crossing exactly one receive, the bulky one
        // generated first (it is at the root): score and generation
        // order would rank it first, the 1 KiB payload's occupancy
        // ranks it below the 4-byte one.
        let outcome = run("p?a.q!big(str).p?b.q!tiny(i32).end", 0);
        let bulky = position(&outcome, "q!big(str).p?a.p?b.q!tiny(i32).end");
        let cheap = position(&outcome, "p?a.q!big(str).q!tiny(i32).p?b.end");
        assert_eq!(
            outcome.candidates[bulky].score,
            outcome.candidates[cheap].score
        );
        assert!(cheap < bulky);
        let best = outcome.best().expect("the cheap hoist is a net win");
        assert!(best.estimated_saving_ns > 0.0);
    }

    #[test]
    fn negative_saving_keeps_the_projection() {
        // Crossing one bare token cannot pay for hoisting a 1 KiB
        // payload: every candidate's saving is negative, so the
        // projection is kept even though the hoist crosses a receive.
        let outcome = run("p?a.q!big(str).end", 0);
        assert!(outcome.candidates[0].score > 0);
        assert!(outcome.candidates[0].estimated_saving_ns < 0.0);
        assert!(outcome.best().is_none());
        assert_eq!(outcome.best_local(), outcome.projection);
        assert!(!outcome.report().improved);
    }

    #[test]
    fn forwarding_candidates_are_pruned_and_counted() {
        let outcome = run("rec x . p?v(i32) . q!v(i32) . x", 1);
        assert!(outcome.pruned > 0);
        assert!(outcome
            .candidates
            .iter()
            .all(|c| outcome.derivation(c).iter().all(|s| s.score() == 0)));
        assert_eq!(outcome.report().pruned, outcome.pruned);
    }

    #[test]
    fn report_json_carries_cost_fields() {
        let json = run("rec x . p?v . q!v . x", 0).report().to_json();
        let Some(Value::Array(candidates)) = json.get("candidates") else {
            panic!("no `candidates` array in {json}");
        };
        let best = json.get("best").expect("best is present");
        for entry in [&candidates[0], best] {
            assert_eq!(
                entry.get("estimated_saving_ns"),
                Some(&Value::F64(cost::RECV_BASE_NS))
            );
        }
    }

    #[test]
    fn report_json_is_well_formed() {
        let report = run("rec x . p?v . q!v . x", 0).report();
        assert_eq!(report.role, "self");
        assert!(report.improved);
        let best = report.best.as_ref().expect("improved");
        assert_eq!(best.derivation, ["hoist q! past p?"]);
        // One member per field, in declaration order, as `--report`
        // writes it.
        let expected = r#"{
  "role": "self",
  "projection": "rec x.p?v.q!v.x",
  "generated": 1,
  "pruned": 0,
  "verified": 1,
  "truncated": false,
  "bound": 4,
  "improved": true,
  "best": {"local": "rec x.q!v.p?v.x", "score": 1, "states": 2, "visited_pairs": 3, "estimated_saving_ns": 15.0, "derivation": ["hoist q! past p?"]},
  "candidates": [{"local": "rec x.q!v.p?v.x", "score": 1, "states": 2, "visited_pairs": 3, "estimated_saving_ns": 15.0}]
}"#;
        assert_eq!(format!("{:#}", report.to_json()), expected);
        let unimproved = run("end", 1).report();
        assert_eq!(unimproved.to_json().get("best"), Some(&Value::Null));
        assert_eq!(
            unimproved.to_json().to_string(),
            r#"{"role": "self", "projection": "end", "generated": 0, "pruned": 0, "verified": 0, "truncated": false, "bound": 5, "improved": false, "best": null, "candidates": []}"#
        );
    }

    #[test]
    fn non_finite_savings_serialise_to_json_the_reader_accepts() {
        let mut report = run("rec x . p?v . q!v . x", 0).report();
        for saving in [f64::NAN, f64::INFINITY] {
            report.candidates[0].estimated_saving_ns = saving;
            // `null`, not `NaN` or `inf`, which no JSON reader accepts.
            let text = report.to_json().to_string();
            assert!(
                text.ends_with(r#""estimated_saving_ns": null}]}"#),
                "{text}"
            );
        }
    }
}
