//! The one no-op trick and the one named-cell registry every
//! instrument is built on.
//!
//! [`Gated<T>`] is the only type in this crate whose *shape* depends on
//! the `telemetry` feature: it holds a `T` with the feature and is a ZST
//! that always answers `None` without it. Counters, histograms and the
//! per-link [`Handle`]s each hold one, write their recorders once as
//! `if let Some(..) = gated.get()`, and the disabled build folds every
//! such branch away — no per-method `#[cfg]` twin anywhere else.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// A `T` that exists only in telemetry builds.
#[derive(Clone, Default)]
pub(crate) struct Gated<T> {
    #[cfg(feature = "telemetry")]
    value: T,
    #[cfg(not(feature = "telemetry"))]
    value: std::marker::PhantomData<T>,
}

impl<T> Gated<T> {
    /// Wraps the value `make` builds; disabled builds never call `make`.
    #[inline]
    pub(crate) fn new(make: impl FnOnce() -> T) -> Self {
        #[cfg(feature = "telemetry")]
        return Self { value: make() };
        #[cfg(not(feature = "telemetry"))]
        {
            let _ = make;
            Self {
                value: std::marker::PhantomData,
            }
        }
    }

    /// The value; always `None` in disabled builds.
    #[inline]
    pub(crate) fn get(&self) -> Option<&T> {
        #[cfg(feature = "telemetry")]
        return Some(&self.value);
        #[cfg(not(feature = "telemetry"))]
        None
    }
}

/// Hot-path handle on a shared statistics cell: `Option<Arc<C>>` in
/// telemetry builds (`None` for unlabelled links, whose recorders are
/// no-ops even with telemetry on), a ZST without the feature.
pub(crate) type Handle<C> = Gated<Option<Arc<C>>>;

impl<C> Handle<C> {
    /// The cell, if this handle is attached to one.
    #[inline]
    pub(crate) fn attached(&self) -> Option<&C> {
        self.get()?.as_deref()
    }
}

/// Statistics cells shared by name: every instance registered under one
/// key (a directed `(from, to)` link, a role) records onto the same
/// cell, so counters aggregate across sessions and reconnects. The mutex
/// is touched on registration, snapshot and reset only — never per
/// message. Stays empty in disabled builds.
pub(crate) struct Registry<K, C> {
    cells: Mutex<BTreeMap<K, Arc<C>>>,
    make: fn(K) -> C,
}

impl<K: Ord + Copy, C> Registry<K, C> {
    /// An empty registry whose cells are built by `make` on first use.
    pub(crate) const fn new(make: fn(K) -> C) -> Self {
        Registry {
            cells: Mutex::new(BTreeMap::new()),
            make,
        }
    }

    fn cells(&self) -> MutexGuard<'_, BTreeMap<K, Arc<C>>> {
        self.cells.lock().expect("telemetry registry poisoned")
    }

    /// A handle on `key`'s cell, created on first use. Inert in disabled
    /// builds.
    pub(crate) fn attach(&self, key: K) -> Handle<C> {
        Gated::new(|| {
            let mut cells = self.cells();
            let cell = cells
                .entry(key)
                .or_insert_with(|| Arc::new((self.make)(key)));
            Some(cell.clone())
        })
    }

    /// Raises the registration `field` (a bound, a window) of `key`'s
    /// cell to at least `value`: re-registration keeps the larger one.
    /// Zero means "not registered" and creates nothing.
    pub(crate) fn raise(&self, key: K, field: fn(&C) -> &AtomicU64, value: u64) {
        if value == 0 {
            return;
        }
        if let Some(cell) = self.attach(key).attached() {
            field(cell).fetch_max(value, Ordering::Relaxed);
        }
    }

    /// Reads every cell through `read`, in key order.
    pub(crate) fn snapshot<S>(&self, read: impl Fn(K, &C) -> S) -> Vec<S> {
        self.cells()
            .iter()
            .map(|(key, cell)| read(*key, cell))
            .collect()
    }

    /// Forgets every cell (tests and trace tools isolating phases);
    /// live handles keep recording onto their detached cells.
    pub(crate) fn reset(&self) {
        self.cells().clear();
    }
}

/// Expands to a recorder that bumps one counter of the handle's cell;
/// every argument-free recorder has this shape.
macro_rules! recorder {
    ($(#[$doc:meta])* $name:ident => |$cell:ident| $body:expr) => {
        $(#[$doc])*
        #[inline]
        pub fn $name(&self) {
            if let Some($cell) = self.cell.attached() {
                $body;
            }
        }
    };
}
pub(crate) use recorder;

#[cfg(test)]
mod tests {
    use super::*;
    use std::mem::size_of;

    #[test]
    fn instruments_are_zero_sized_when_disabled() {
        if crate::ENABLED {
            return;
        }
        assert_eq!(size_of::<Gated<u64>>(), 0);
        assert_eq!(size_of::<Handle<u64>>(), 0);
        assert_eq!(size_of::<crate::Counter>(), 0);
        assert_eq!(size_of::<crate::hist::Histogram>(), 0);
        assert_eq!(size_of::<crate::channel::LinkStats>(), 0);
    }
}
