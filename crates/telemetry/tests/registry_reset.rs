//! Enabled builds register, max-merge and reset every instrument
//! through the one generic registry. Alone in its own test binary so
//! `reset()` cannot race the unit tests' registries.

use telemetry::{channel, hist, transport};

#[test]
fn registrations_max_merge_and_reset_clears_every_instrument() {
    if !telemetry::ENABLED {
        return;
    }
    channel::set_bound("GateA", "GateB", 3);
    channel::set_bound("GateA", "GateB", 5);
    channel::set_bound("GateA", "GateB", 2);
    channel::set_bound("GateA", "GateB", 0);
    transport::set_bound("GateA", "GateB", 4);
    transport::set_bound("GateA", "GateB", 1);
    hist::record_session("GateA", 1_000);
    let links = channel::snapshot();
    assert_eq!(links.len(), 1, "one cell per name pair");
    assert_eq!(links[0].kmc_bound, Some(5));
    let remote = transport::snapshot();
    assert_eq!(remote.len(), 1);
    assert_eq!(remote[0].kmc_bound, Some(4));
    assert_eq!(hist::sessions_snapshot().len(), 1);

    channel::reset();
    transport::reset();
    hist::reset_sessions();
    assert!(channel::snapshot().is_empty());
    assert!(transport::snapshot().is_empty());
    assert!(hist::sessions_snapshot().is_empty());
}
