//! The cross-field invariants behind `bench-check report`: what a
//! well-typed optimisation report must additionally satisfy.
//!
//! Shape (which members exist, of which type) is settled by decoding
//! into [`Report`]; [`report`] takes the decoded value and returns one
//! line per violated invariant, empty when it holds.

use optimiser::Report;

/// Invariants of a `rumpsteak-gen --optimise --report` array:
///
/// * `improved` is true exactly when `best` is present,
/// * `candidates` lists exactly the `verified` candidates, in
///   non-increasing `estimated_saving_ns` order,
/// * `best` is present exactly when the first candidate's saving is
///   positive, has a derivation and is that candidate, and
/// * `verified` never exceeds `generated`.
pub fn report(roles: &[Report]) -> Vec<String> {
    let mut errors = Vec::new();
    if roles.is_empty() {
        errors.push("report lists no roles".to_owned());
    }
    for (i, role) in roles.iter().enumerate() {
        let at = format!("report[{i}] ({})", role.role);
        if role.role.is_empty() || role.projection.is_empty() {
            errors.push(format!("{at}: empty `role` or `projection`"));
        }
        if role.candidates.len() != role.verified {
            errors.push(format!(
                "{at}: `candidates` lists {} entries but `verified` is {}",
                role.candidates.len(),
                role.verified
            ));
        }
        if role.verified > role.generated {
            errors.push(format!(
                "{at}: `verified` {} exceeds `generated` {}",
                role.verified, role.generated
            ));
        }
        if role
            .candidates
            .iter()
            .any(|c| c.local.is_empty() || c.states == 0)
        {
            errors.push(format!("{at}: a candidate has no `local` or no states"));
        }
        if !role
            .candidates
            .is_sorted_by(|a, b| a.estimated_saving_ns >= b.estimated_saving_ns)
        {
            errors.push(format!(
                "{at}: `candidates` are not in non-increasing `estimated_saving_ns` order"
            ));
        }
        let first_saves = role
            .candidates
            .first()
            .is_some_and(|c| c.estimated_saving_ns > 0.0);
        if role.best.is_some() != first_saves {
            errors.push(format!(
                "{at}: `best` must be present exactly when the first candidate's \
                 `estimated_saving_ns` is positive"
            ));
        }
        if role.improved != role.best.is_some() {
            errors.push(format!(
                "{at}: `improved` disagrees with `best` being present"
            ));
        }
        if let Some(best) = &role.best {
            if best.derivation.is_empty() || best.derivation.iter().any(String::is_empty) {
                errors.push(format!("{at}: `best` has no derivation steps"));
            }
            if role.candidates.first().map(|c| &c.local) != Some(&best.local) {
                errors.push(format!("{at}: `best` is not the first ranked candidate"));
            }
        }
    }
    errors
}
