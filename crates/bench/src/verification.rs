//! Generators for the Fig 7 verification benchmarks.
//!
//! Each family produces the candidate-subtype/supertype pair checked by
//! Rumpsteak's algorithm and SoundBinary, and the FSM system checked by
//! k-MC, for a given scale parameter `n`.
//!
//! The k-buffering and nested-choice families are **generated**: their
//! base types come out of the codegen pipeline (Scribble parse →
//! projection) rather than hand-built `LocalType` terms — k-buffering
//! from the committed `double_buffering.scr` / parameterised
//! `kbuffering.scr` templates, nested choice from Scribble sources nested
//! to depth `n` by a template function. Only the *optimised* variants
//! (the asynchronous-message-reordering the paper verifies against the
//! projection) remain programmatic, because AMR output is precisely what
//! projection does not produce.

use theory::local::LocalType;
use theory::name::Name;
use theory::sort::Sort;
use theory::{fsm, Fsm};

/// Converts a local type to an FSM for the given role.
pub fn to_fsm(role: &str, local: &LocalType) -> Fsm {
    fsm::from_local(&Name::from(role), local).expect("generated types are well-formed")
}

/// Runs the AMR optimiser on `projected` (unfold depth `depth`) and
/// returns its verified candidate FSM-equivalent to `expected` — the
/// cross-check that the search *rediscovers* a hand-written reordering
/// rather than merely admitting it. Panics when the optimiser no longer
/// derives it.
fn rediscover(role: &str, projected: &LocalType, expected: &LocalType, depth: usize) -> LocalType {
    let outcome = optimiser::optimise(
        &Name::from(role),
        projected,
        &optimiser::Config::with_depth(depth),
    )
    .expect("projection converts to an FSM");
    let target = to_fsm(role, expected);
    let found = outcome
        .candidates
        .iter()
        .find(|candidate| candidate.fsm == target)
        .unwrap_or_else(|| {
            panic!("optimiser no longer derives the hand-written reordering of {role}")
        });
    outcome.local(found)
}

/// Runs the exact k-MC search, the paper's unreduced baseline tool, on a
/// family's `(system, k)` instance. The instances are public so that the
/// k-MC differential test explores exactly what Fig 7 times.
fn kmc_safe((system, k): (kmc::System, usize)) -> bool {
    kmc::explore(&system, k).is_ok()
}

/// [`kmc_safe`]'s verdict from the reduced search, [`kmc::check`].
fn kmc_safe_reduced((system, k): (kmc::System, usize)) -> bool {
    kmc::check(&system, k).is_ok()
}

/// The channel bounds [`codegen::verified_channel_bounds`] asks for:
/// [`kmc::bounds`] at [`codegen::MAX_BOUND_SEARCH`] on a family's safe
/// system. False when the exact search at that bound
/// would not be exhaustive, so the searches give no depths.
fn kmc_bounded((system, _): (kmc::System, usize)) -> bool {
    kmc::bounds(&system, codegen::MAX_BOUND_SEARCH)
        .expect("a safe system")
        .is_some()
}

/// Fig 7 (left): the streaming protocol with `n` unrolled values.
pub mod streaming {
    use super::*;

    /// Projected source: `μx. t?ready. t!value. x`.
    pub fn projected() -> LocalType {
        LocalType::rec(
            "x",
            LocalType::receive(
                "t",
                "ready",
                Sort::Unit,
                LocalType::send("t", "value", Sort::Unit, LocalType::Var("x".into())),
            ),
        )
    }

    /// Optimised source: `t!value^n . μx. t?ready. t!value. x`.
    pub fn optimised(unrolls: usize) -> LocalType {
        let mut t = projected();
        for _ in 0..unrolls {
            t = LocalType::send("t", "value", Sort::Unit, t);
        }
        t
    }

    /// The optimiser-derived counterpart of [`optimised`]: searches the
    /// projection's verified reorderings (unfold depth `unrolls`) for
    /// the variant FSM-equivalent to the hand-written one, panicking if
    /// the optimiser no longer rediscovers it. The hand-written
    /// constructor above is thereby a cross-check on optimiser output.
    pub fn auto_optimised(unrolls: usize) -> LocalType {
        super::rediscover("s", &projected(), &optimised(unrolls), unrolls)
    }

    /// The sink: `μx. s!ready. s?value. x` (peer named `s`).
    pub fn sink() -> LocalType {
        LocalType::rec(
            "x",
            LocalType::send(
                "s",
                "ready",
                Sort::Unit,
                LocalType::receive("s", "value", Sort::Unit, LocalType::Var("x".into())),
            ),
        )
    }

    /// Rumpsteak check: optimised ≤ projected with bound `n + 4`.
    pub fn check_rumpsteak(unrolls: usize) -> bool {
        subtyping::is_subtype(
            &to_fsm("s", &optimised(unrolls)),
            &to_fsm("s", &projected()),
            unrolls + 4,
        )
    }

    /// SoundBinary check on the same pair.
    pub fn check_soundbinary(unrolls: usize) -> bool {
        soundbinary::is_subtype(
            &optimised(unrolls),
            &projected(),
            soundbinary::Limits::default(),
        )
        .expect("binary by construction")
    }

    /// The k-MC instance: the optimised source against the sink, with a
    /// channel bound that covers the unrolled values.
    pub fn kmc_instance(unrolls: usize) -> (kmc::System, usize) {
        let system = kmc::System::new(vec![
            to_fsm("s", &rename_peer(&optimised(unrolls), "t")),
            to_fsm("t", &sink()),
        ])
        .expect("two distinct roles");
        (system, unrolls + 1)
    }

    /// k-MC check of [`kmc_instance`].
    pub fn check_kmc(unrolls: usize) -> bool {
        super::kmc_safe(kmc_instance(unrolls))
    }

    /// Renames the single peer of a binary type (helper so that the
    /// source's peer is the sink's role name).
    fn rename_peer(t: &LocalType, _peer: &str) -> LocalType {
        t.clone()
    }
}

/// Fig 7 (second): nested choice (Chen et al. [13, Fig 3]), generated
/// from Scribble sources nested to depth `n`.
pub mod nested_choice {
    use super::*;

    /// Scribble source of the global protocol whose projection onto `a`
    /// is the candidate subtype `T_n`.
    pub fn subtype_scribble(levels: usize) -> String {
        fn body(levels: usize) -> String {
            if levels == 0 {
                return String::new();
            }
            let inner = body(levels - 1);
            format!(
                "choice at a {{ m() from a to p; choice at p \
                 {{ r() from p to a; {inner} }} or {{ s() from p to a; {inner} }} \
                 or {{ u() from p to a; {inner} }} }} \
                 or {{ p() from a to p; choice at p \
                 {{ r() from p to a; {inner} }} or {{ s() from p to a; {inner} }} }}"
            )
        }
        format!(
            "global protocol NestedChoiceSub(role a, role p) {{ {} }}",
            body(levels)
        )
    }

    /// Scribble source of the global protocol whose projection onto `a`
    /// is the supertype `T'_n`.
    pub fn supertype_scribble(levels: usize) -> String {
        fn body(levels: usize) -> String {
            if levels == 0 {
                return String::new();
            }
            let inner = body(levels - 1);
            format!(
                "choice at p {{ r() from p to a; choice at a \
                 {{ m() from a to p; {inner} }} or {{ p() from a to p; {inner} }} \
                 or {{ q() from a to p; {inner} }} }} \
                 or {{ s() from p to a; choice at a \
                 {{ m() from a to p; {inner} }} or {{ p() from a to p; {inner} }} }}"
            )
        }
        format!(
            "global protocol NestedChoiceSup(role a, role p) {{ {} }}",
            body(levels)
        )
    }

    fn analysis(source: &str) -> codegen::Analysis {
        codegen::analyse(source).expect("generated nested-choice protocol analyses")
    }

    /// `T_n`: the candidate subtype (projection of the generated global
    /// onto `a`).
    pub fn subtype(levels: usize) -> LocalType {
        analysis(&subtype_scribble(levels)).locals.remove(0).1
    }

    /// `T'_n`: the supertype (projection onto `a`).
    pub fn supertype(levels: usize) -> LocalType {
        analysis(&supertype_scribble(levels)).locals.remove(0).1
    }

    /// Rumpsteak check: `T_n ≤ T'_n`.
    pub fn check_rumpsteak(levels: usize) -> bool {
        subtyping::is_subtype(
            &to_fsm("a", &subtype(levels)),
            &to_fsm("a", &supertype(levels)),
            levels + 2,
        )
    }

    /// SoundBinary check on the same pair.
    pub fn check_soundbinary(levels: usize) -> bool {
        soundbinary::is_subtype(
            &subtype(levels),
            &supertype(levels),
            soundbinary::Limits::default(),
        )
        .expect("binary by construction")
    }

    /// The k-MC instance: `T_n` against the communicating partner of
    /// `T'_n` (the projection onto `p` of the supertype protocol, i.e. its
    /// dual).
    pub fn kmc_instance(levels: usize) -> (kmc::System, usize) {
        let a = analysis(&subtype_scribble(levels)).fsms.remove(0);
        let p = analysis(&supertype_scribble(levels)).fsms.remove(1);
        let system = kmc::System::new(vec![a, p]).expect("two distinct roles");
        (system, levels.max(1))
    }

    /// k-MC check of [`kmc_instance`].
    pub fn check_kmc(levels: usize) -> bool {
        super::kmc_safe(kmc_instance(levels))
    }
}

/// Fig 7 (third): the ring of `n` participants.
pub mod ring {
    use super::*;

    fn role(i: usize) -> String {
        format!("p{i}")
    }

    /// Projected type of participant `i` in an `n`-ring: receive from the
    /// predecessor, send to the successor (`p0` initiates: send first).
    pub fn projected(i: usize, n: usize) -> LocalType {
        let prev = role((i + n - 1) % n);
        let next = role((i + 1) % n);
        if i == 0 {
            LocalType::rec(
                "x",
                LocalType::send(
                    next,
                    "v",
                    Sort::Unit,
                    LocalType::receive(prev, "v", Sort::Unit, LocalType::Var("x".into())),
                ),
            )
        } else {
            LocalType::rec(
                "x",
                LocalType::receive(
                    prev,
                    "v",
                    Sort::Unit,
                    LocalType::send(next, "v", Sort::Unit, LocalType::Var("x".into())),
                ),
            )
        }
    }

    /// Optimised participant: sends before receiving (valid AMR since the
    /// forwarded value does not depend on the received one).
    pub fn optimised(i: usize, n: usize) -> LocalType {
        let prev = role((i + n - 1) % n);
        let next = role((i + 1) % n);
        LocalType::rec(
            "x",
            LocalType::send(
                next,
                "v",
                Sort::Unit,
                LocalType::receive(prev, "v", Sort::Unit, LocalType::Var("x".into())),
            ),
        )
    }

    /// The optimiser-derived counterpart of [`optimised`]: at unfold
    /// depth 0 (pure reordering, the paper's variant) the search's *best*
    /// candidate is exactly the swapped loop — for `p0`, which is already
    /// send-first, the projection is kept. Panics if the optimiser stops
    /// rediscovering it.
    pub fn auto_optimised(i: usize, n: usize) -> LocalType {
        let projected = projected(i, n);
        let outcome = optimiser::optimise(
            &Name::from(role(i)),
            &projected,
            &optimiser::Config::with_depth(0),
        )
        .expect("projection converts");
        let best = outcome.best_local();
        assert_eq!(
            super::to_fsm(&role(i), &best),
            super::to_fsm(&role(i), &optimised(i, n)),
            "optimiser no longer derives the ring reordering for {}",
            role(i),
        );
        best
    }

    /// Rumpsteak verifies each participant **locally**: n independent
    /// subtype checks (this is the scalability win of Fig 7).
    pub fn check_rumpsteak(n: usize) -> bool {
        (0..n).all(|i| {
            subtyping::is_subtype(
                &to_fsm(&role(i), &optimised(i, n)),
                &to_fsm(&role(i), &projected(i, n)),
                4,
            )
        })
    }

    /// The k-MC instance: the whole optimised system at once, one
    /// message per channel.
    pub fn kmc_instance(n: usize) -> (kmc::System, usize) {
        let machines = (0..n).map(|i| to_fsm(&role(i), &optimised(i, n))).collect();
        (kmc::System::new(machines).expect("distinct roles"), 1)
    }

    /// k-MC must analyse the whole optimised system at once.
    pub fn check_kmc(n: usize) -> bool {
        super::kmc_safe(kmc_instance(n))
    }

    /// [`check_kmc`]'s verdict from the reduced search.
    pub fn check_kmc_reduced(n: usize) -> bool {
        super::kmc_safe_reduced(kmc_instance(n))
    }

    /// The whole optimised system's channel bounds from [`kmc::bounds`];
    /// false when it gives no depths.
    pub fn kmc_bounds(n: usize) -> bool {
        super::kmc_bounded(kmc_instance(n))
    }
}

/// Fig 7 (right): k-buffering — double buffering generalised to `n`
/// anticipated `ready`s (i.e. `n + 1` buffers).
///
/// The base types are generated: [`projected`](k_buffering::projected),
/// [`source`](k_buffering::source) and [`sink`](k_buffering::sink) are
/// the codegen pipeline's projections of the committed
/// `double_buffering.scr`, and [`pipeline`](k_buffering::pipeline)
/// instantiates the parameterised `kbuffering.scr` template
/// (`role w[1..n]`) for the depth-scaling variant.
pub mod k_buffering {
    use std::sync::OnceLock;

    use super::*;

    const SCRIBBLE: &str = include_str!("../../codegen/tests/protocols/double_buffering.scr");
    const PIPELINE: &str = include_str!("../../codegen/tests/protocols/kbuffering.scr");

    /// Projections of the double-buffering protocol, in role order
    /// (s, k, t), produced once by the codegen pipeline.
    fn locals() -> &'static [(Name, LocalType)] {
        static LOCALS: OnceLock<Vec<(Name, LocalType)>> = OnceLock::new();
        LOCALS.get_or_init(|| {
            codegen::analyse(SCRIBBLE)
                .expect("double_buffering.scr analyses")
                .locals
        })
    }

    fn local(role: &str) -> LocalType {
        let role = Name::from(role);
        locals()
            .iter()
            .find(|(name, _)| *name == role)
            .map(|(_, local)| local.clone())
            .expect("double buffering declares roles s, k, t")
    }

    /// Projected kernel `Mk` (Fig 4a): the generated projection onto `k`.
    pub fn projected() -> LocalType {
        local("k")
    }

    /// Optimised kernel with `n` anticipated readys (Fig 4b is `n = 1`) —
    /// the AMR transformation applied on top of the generated projection.
    pub fn optimised(n: usize) -> LocalType {
        let mut t = projected();
        for _ in 0..n {
            t = LocalType::send("s", "ready", Sort::Unit, t);
        }
        t
    }

    /// The optimiser-derived counterpart of [`optimised`]: the Fig 4
    /// `n`-anticipation kernel found by the verified-subtype search at
    /// unfold depth `n` instead of constructed by hand. Panics if the
    /// optimiser no longer rediscovers it.
    pub fn auto_optimised(n: usize) -> LocalType {
        super::rediscover("k", &projected(), &optimised(n), n)
    }

    /// The source of the double-buffering protocol (projection onto `s`).
    pub fn source() -> LocalType {
        local("s")
    }

    /// Sink local type (projection onto `t`).
    pub fn sink() -> LocalType {
        local("t")
    }

    /// Rumpsteak check: optimised kernel ≤ projected kernel.
    pub fn check_rumpsteak(n: usize) -> bool {
        subtyping::is_subtype(
            &to_fsm("k", &optimised(n)),
            &to_fsm("k", &projected()),
            n + 4,
        )
    }

    /// The k-MC instance: the whole optimised system with channel bound
    /// n+1.
    pub fn kmc_instance(n: usize) -> (kmc::System, usize) {
        let system = kmc::System::new(vec![
            to_fsm("k", &optimised(n)),
            to_fsm("s", &source()),
            to_fsm("t", &sink()),
        ])
        .expect("distinct roles");
        (system, n + 1)
    }

    /// k-MC check of [`kmc_instance`].
    pub fn check_kmc(n: usize) -> bool {
        super::kmc_safe(kmc_instance(n))
    }

    /// Instantiates the parameterised `kbuffering.scr` pipeline with
    /// `stages` kernel stages and returns the full analysis (projections
    /// and FSMs for s, w1..w`stages`, t).
    pub fn pipeline(stages: usize) -> codegen::Analysis {
        codegen::analyse_with(PIPELINE, &[(Name::from("n"), stages as i64)])
            .expect("kbuffering.scr instantiates")
    }

    /// Rumpsteak-side verification of the `stages`-deep pipeline: one
    /// *local* subtype check per participant — the per-role cost the
    /// paper contrasts with whole-system k-MC. Each participant's
    /// one-level loop unfolding is checked against its projection
    /// (`T[μt.T/t] ≤ μt.T`): syntactically distinct FSMs whose
    /// equivalence the subtyping algorithm must actually prove, so a
    /// broken projection, FSM conversion or candidate-tree traversal
    /// fails the check (unlike a reflexive `T ≤ T` pass).
    pub fn check_rumpsteak_pipeline(stages: usize) -> bool {
        let analysis = pipeline(stages);
        analysis.locals.iter().all(|(role, local)| {
            subtyping::is_subtype(
                &to_fsm(role.as_str(), &local.unfold()),
                &to_fsm(role.as_str(), local),
                4,
            )
        })
    }

    /// The k-MC instance of the `stages`-deep pipeline: the whole system
    /// at k = 2.
    pub fn kmc_pipeline_instance(stages: usize) -> (kmc::System, usize) {
        let system = kmc::System::new(pipeline(stages).fsms).expect("distinct roles");
        (system, 2)
    }

    /// Whole-system k-MC of the `stages`-deep pipeline.
    pub fn check_kmc_pipeline(stages: usize) -> bool {
        super::kmc_safe(kmc_pipeline_instance(stages))
    }

    /// [`check_kmc_pipeline`]'s verdict from the reduced search.
    pub fn check_kmc_pipeline_reduced(stages: usize) -> bool {
        super::kmc_safe_reduced(kmc_pipeline_instance(stages))
    }

    /// The pipeline's channel bounds from [`kmc::bounds`]; false when it
    /// gives no depths.
    pub fn kmc_pipeline_bounds(stages: usize) -> bool {
        super::kmc_bounded(kmc_pipeline_instance(stages))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streaming_checks_agree() {
        for n in [0, 1, 3, 8] {
            assert!(streaming::check_rumpsteak(n), "rumpsteak n={n}");
            assert!(streaming::check_soundbinary(n), "soundbinary n={n}");
            assert!(streaming::check_kmc(n), "kmc n={n}");
        }
    }

    #[test]
    fn nested_choice_checks_agree() {
        for n in [0, 1, 2] {
            assert!(nested_choice::check_rumpsteak(n), "rumpsteak n={n}");
            assert!(nested_choice::check_soundbinary(n), "soundbinary n={n}");
            assert!(nested_choice::check_kmc(n), "kmc n={n}");
        }
    }

    /// 27 343 states a side: a check pays for the pairs it visits, where a
    /// `states × states` history would need about 48 GB.
    #[test]
    fn nested_choice_six_levels_checks() {
        assert_eq!(to_fsm("a", &nested_choice::subtype(6)).len(), 27_343);
        assert!(nested_choice::check_rumpsteak(6));
    }

    #[test]
    fn ring_checks_agree() {
        for n in [2, 3, 6] {
            assert!(ring::check_rumpsteak(n), "rumpsteak n={n}");
            assert!(ring::check_kmc(n), "kmc n={n}");
        }
    }

    #[test]
    fn k_buffering_checks_agree() {
        for n in [0, 1, 2, 5] {
            assert!(k_buffering::check_rumpsteak(n), "rumpsteak n={n}");
            assert!(k_buffering::check_kmc(n), "kmc n={n}");
        }
    }

    #[test]
    fn k_buffering_base_types_match_fig4() {
        // The generated projections must match the paper's hand-written
        // Fig 4 kernels (up to recursion-variable naming, so compare FSMs).
        let cases = [
            (
                k_buffering::projected(),
                "rec x . s!ready . s?value . t?ready . t!value . x",
            ),
            (k_buffering::source(), "rec x . k?ready . k!value . x"),
            (k_buffering::sink(), "rec x . k!ready . k?value . x"),
        ];
        for (generated, expected) in cases {
            let expected = theory::local::parse(expected).unwrap();
            assert_eq!(
                to_fsm("k", &generated),
                to_fsm("k", &expected),
                "generated projection diverged from Fig 4"
            );
        }
    }

    #[test]
    fn k_buffering_pipeline_scales() {
        for stages in [1, 2, 4] {
            assert!(
                k_buffering::check_rumpsteak_pipeline(stages),
                "rumpsteak stages={stages}"
            );
            assert!(
                k_buffering::check_kmc_pipeline(stages),
                "kmc stages={stages}"
            );
        }
    }

    #[test]
    fn nested_choice_matches_hand_built_shape() {
        // The generated T_1 must be the Chen et al. type the old
        // hand-built constructor produced.
        let subtype = nested_choice::subtype(1);
        let expected = theory::local::parse(
            "+{ p!m.&{ p?r.end, p?s.end, p?u.end }, p!p.&{ p?r.end, p?s.end } }",
        )
        .unwrap();
        assert_eq!(to_fsm("a", &subtype), to_fsm("a", &expected));
    }

    #[test]
    fn optimiser_rediscovers_fig4_k_buffering_kernels() {
        // Fig 4 / §2–3: the optimiser must derive, for every anticipation
        // depth, a reordering FSM-equivalent to the hand-written kernel —
        // and every accepted candidate is already a verified subtype.
        for n in [1, 2, 3] {
            let auto = k_buffering::auto_optimised(n);
            assert_eq!(
                to_fsm("k", &auto),
                to_fsm("k", &k_buffering::optimised(n)),
                "n={n}"
            );
            // The derived kernel drops into the whole system exactly like
            // the hand-written one.
            let system = kmc::System::new(vec![
                to_fsm("k", &auto),
                to_fsm("s", &k_buffering::source()),
                to_fsm("t", &k_buffering::sink()),
            ])
            .expect("distinct roles");
            kmc::check(&system, n + 1).expect("auto-optimised system is k-MC safe");
        }
    }

    #[test]
    fn optimiser_rediscovers_streaming_unrolls() {
        for n in [1, 2, 3] {
            assert_eq!(
                to_fsm("s", &streaming::auto_optimised(n)),
                to_fsm("s", &streaming::optimised(n)),
                "n={n}"
            );
        }
    }

    #[test]
    fn optimiser_rediscovers_ring_reordering_as_best() {
        for n in [2, 3, 4] {
            let machines: Vec<_> = (0..n)
                .map(|i| to_fsm(&format!("p{i}"), &ring::auto_optimised(i, n)))
                .collect();
            let system = kmc::System::new(machines).expect("distinct roles");
            kmc::check(&system, 1).expect("auto-optimised ring is k-MC safe");
        }
    }

    #[test]
    fn optimiser_beats_or_matches_hand_written_depth() {
        // The search is allowed to find *deeper* verified reorderings
        // than the paper's (it composes hoists with anticipation), but
        // never shallower ones.
        for n in [1, 2, 3] {
            let outcome = optimiser::optimise(
                &Name::from("k"),
                &k_buffering::projected(),
                &optimiser::Config::with_depth(n),
            )
            .unwrap();
            assert!(outcome.best().expect("kernel optimises").score >= n);
        }
    }

    #[test]
    fn unsafe_ring_variant_rejected_by_both() {
        // Making p0 receive before sending deadlocks the whole ring.
        let n = 3;
        let bad = theory::local::parse("rec x . p2?v . p1!v . x").unwrap();
        assert!(!subtyping::is_subtype(
            &to_fsm("p0", &bad),
            &to_fsm("p0", &ring::projected(0, n)),
            4,
        ));
        let machines = vec![
            to_fsm("p0", &bad),
            to_fsm("p1", &ring::projected(1, n)),
            to_fsm("p2", &ring::projected(2, n)),
        ];
        let system = kmc::System::new(machines).unwrap();
        assert!(kmc::check(&system, 1).is_err());
    }
}
