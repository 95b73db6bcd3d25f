//! Enabled builds register, max-merge and reset every instrument
//! through the one generic registry. Alone in its own test binary so
//! `reset()` cannot race the unit tests' registries.

use telemetry::{channel, hist};

#[test]
fn registrations_max_merge_and_reset_clears_every_instrument() {
    if !telemetry::ENABLED {
        return;
    }
    channel::set_bound("GateA", "GateB", 3);
    channel::set_bound("GateA", "GateB", 5);
    channel::set_bound("GateA", "GateB", 2);
    channel::set_bound("GateA", "GateB", 0);
    channel::set_window("GateA", "GateB", 4);
    channel::set_window("GateA", "GateB", 1);
    channel::attach("GateA", "GateB").record_reconnect();
    hist::record_session("GateA", 1_000);
    let links = channel::snapshot();
    assert_eq!(links.len(), 1, "one cell per name pair");
    assert_eq!(links[0].kmc_bound, Some(5));
    assert_eq!(links[0].window, Some(4));
    assert_eq!(links[0].reconnects, 1);
    assert_eq!(links[0].instances, 0, "attaching is not an instance");
    assert_eq!(hist::sessions_snapshot().len(), 1);

    channel::reset();
    hist::reset_sessions();
    assert!(channel::snapshot().is_empty());
    assert!(hist::sessions_snapshot().is_empty());
}
