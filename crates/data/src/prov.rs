//! Std-only derivation-provenance capture: an opt-in, gated record of every
//! trigger firing a chase performs.
//!
//! The chase engines answer *what* holds (the materialized instance) but
//! not *why*. This module is the "why" side: when the gate is on, every
//! trigger firing — in all three engines, which all fire through the shared
//! `TriggerPlan::fire_row` of the chase crate — appends one
//! [`FiringRecord`] naming the TGD, the full variable valuation (body
//! variables in ascending order, then the fresh nulls chosen for the
//! existential variables), and the ground head atoms the firing produced.
//! The collected sequence *is* the derivation: replaying it by naive
//! substitution re-derives exactly the chase-added atoms, which is what the
//! independent certificate checker (`gtgd-check`) does fail-closed.
//!
//! The design:
//!
//! * probes are **off by default** — each `record_firing` call compiles to
//!   one thread-local flag read and a branch, so an uncertified run pays
//!   nothing but that branch;
//! * state is **thread-local** — the gate and the record buffer belong to
//!   the calling thread. Every engine fires triggers only on the thread
//!   that called it (parallel chase workers discover triggers but never
//!   fire them; the merge and fire loop runs on the caller's thread), so a
//!   collected run records exactly its own firings, in the engines'
//!   canonical firing order, deterministic for any worker count — and
//!   chases running on other threads at the same time can neither leak
//!   firings into it nor see its gate;
//! * the protocol is enable → [`reset`] → run → [`take`] → disable,
//!   packaged as [`collect_run`].
//!
//! Variables are identified by their dense `u32` index (the chase crate's
//! `Var` index); this crate stays below the query/chase layer on purpose so
//! both can feed it.

use crate::atom::GroundAtom;
use crate::value::Value;
use std::cell::{Cell, RefCell};

/// One trigger firing: the `tgd`-th rule fired under `val`, producing
/// `atoms`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FiringRecord {
    /// Index of the TGD in the rule set the chase ran.
    pub tgd: usize,
    /// The full valuation: body variables (the trigger's homomorphism, in
    /// ascending variable order) followed by existential variables bound to
    /// the fresh nulls this firing invented. Pairs are `(variable index,
    /// value)`.
    pub val: Vec<(u32, Value)>,
    /// The ground head atoms the firing produced (whether or not the
    /// instance already contained them).
    pub atoms: Vec<GroundAtom>,
}

thread_local! {
    /// This thread's provenance gate. Every probe is a branch on it.
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    /// Firings this thread recorded since its last [`reset`], in firing
    /// order.
    static FIRINGS: RefCell<Vec<FiringRecord>> = const { RefCell::new(Vec::new()) };
}

/// Whether this thread currently records firings. One thread-local load;
/// inlined into the probe site.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.with(Cell::get)
}

/// Turns provenance recording on or off for this thread. Callers wanting a
/// per-run record follow enable → [`reset`] → run → [`take`] → disable
/// ([`collect_run`] is the one-call form).
pub fn set_enabled(on: bool) {
    ENABLED.with(|g| g.set(on));
}

/// Clears this thread's recorded firing list. Does not touch the gate.
pub fn reset() {
    FIRINGS.with(|f| f.borrow_mut().clear());
}

/// Appends a firing record to this thread's list if its gate is on. The
/// disabled path is one thread-local load and a branch; callers on hot
/// paths should pre-check [`enabled`] before materializing the record's
/// vectors.
#[inline]
pub fn record_firing(record: FiringRecord) {
    if enabled() {
        FIRINGS.with(|f| f.borrow_mut().push(record));
    }
}

/// Takes this thread's recorded firings, leaving its list empty
/// (regardless of the gate).
pub fn take() -> Vec<FiringRecord> {
    FIRINGS.with(|f| std::mem::take(&mut *f.borrow_mut()))
}

/// Runs `f` on this thread with provenance recording enabled against a
/// clean slate and returns its result together with the firings it
/// recorded; the gate is switched off again afterwards. Runs collected
/// concurrently on other threads are independent.
pub fn collect_run<T>(f: impl FnOnce() -> T) -> (T, Vec<FiringRecord>) {
    set_enabled(true);
    reset();
    let out = f();
    let firings = take();
    set_enabled(false);
    (out, firings)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(tgd: usize) -> FiringRecord {
        FiringRecord {
            tgd,
            val: vec![(0, Value::named("a"))],
            atoms: vec![GroundAtom::named("P", &["a"])],
        }
    }

    #[test]
    fn disabled_gate_records_nothing() {
        set_enabled(false);
        reset();
        record_firing(rec(0));
        assert!(take().is_empty());
    }

    #[test]
    fn collect_run_captures_in_order_and_disarms() {
        let ((), firings) = collect_run(|| {
            record_firing(rec(2));
            record_firing(rec(0));
        });
        assert_eq!(firings.len(), 2);
        assert_eq!(firings[0].tgd, 2);
        assert_eq!(firings[1].tgd, 0);
        assert!(!enabled(), "gate must be off after collect_run");
        assert!(take().is_empty(), "collect_run drains the list");
    }

    #[test]
    fn reset_clears_pending_records() {
        set_enabled(true);
        record_firing(rec(1));
        reset();
        let left = take();
        set_enabled(false);
        assert!(left.is_empty());
    }

    #[test]
    fn other_threads_neither_leak_into_nor_see_a_collected_run() {
        let ((), firings) = collect_run(|| {
            record_firing(rec(1));
            std::thread::scope(|s| {
                s.spawn(|| {
                    assert!(!enabled(), "the gate is per thread");
                    set_enabled(true);
                    record_firing(rec(9));
                    assert_eq!(take().len(), 1);
                    set_enabled(false);
                });
            });
            record_firing(rec(2));
        });
        let tgds: Vec<usize> = firings.iter().map(|f| f.tgd).collect();
        assert_eq!(tgds, [1, 2]);
    }
}
