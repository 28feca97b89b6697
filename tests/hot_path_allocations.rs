//! The event loop allocates nothing per event once a run is warm.
//!
//! This binary installs a global allocator that counts allocations per
//! thread, runs each machine in slices of 100 000 events on the test's
//! own thread, and checks the allocations made by every full slice after
//! the first: that slice grows queues, tables and buffers to their
//! working size, and from then on the hot path must reuse them. The
//! bound is one allocation per 50 events; one allocation per
//! transaction at every node it visits costs about one per three.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use uncorq::coherence::{ProtocolConfig, ProtocolKind, ProtocolVariant};
use uncorq::system::{HtMachine, Machine, MachineConfig, NodeAgent, RunProgress, Sim};
use uncorq::workloads::AppProfile;

/// Counts every allocation and reallocation of the calling thread.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    ALLOCATIONS.with(|c| c.set(c.get() + 1));
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

// SAFETY: every method forwards to `System` unchanged; counting touches
// only a const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's contract is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's contract is `System.alloc_zeroed`'s.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: the caller's contract is `System.realloc`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract is `System.dealloc`'s.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const SLICE: u64 = 100_000;

/// Most allocations per event a warm slice may make.
const BOUND: f64 = 0.02;

/// 4×4 `fmm`, long enough for at least three full slices.
fn cfg(protocol: ProtocolConfig) -> (MachineConfig, AppProfile) {
    let mut cfg = MachineConfig::with_protocol(protocol);
    (cfg.width, cfg.height) = (4, 4);
    let profile = AppProfile::by_name("fmm")
        .expect("fmm profile")
        .scaled(12_000);
    (cfg, profile)
}

/// Runs `m` to the end and checks the allocations of every full slice
/// after the first.
fn assert_warm_slices_allocate_nothing<A: NodeAgent>(name: &str, mut m: Sim<A>) {
    assert!(
        matches!(m.try_run_slice(SLICE), Ok(RunProgress::Yielded { .. })),
        "{name}: the run must outlast one slice"
    );
    let mut per_slice = Vec::new();
    loop {
        let before = allocations();
        match m.try_run_slice(SLICE).expect("the run completes") {
            RunProgress::Yielded { events, .. } => {
                per_slice.push((allocations() - before) as f64 / events as f64);
            }
            RunProgress::Done(report) => {
                assert!(report.finished, "{name}: every core finishes");
                break;
            }
        }
    }
    eprintln!("{name}: allocations per event by warm slice {per_slice:.4?}");
    assert!(
        per_slice.len() >= 2,
        "{name}: only {} full slices after the first",
        per_slice.len()
    );
    for (i, rate) in per_slice.iter().enumerate() {
        assert!(
            *rate <= BOUND,
            "{name}: slice {} made {rate:.4} allocations per event (bound {BOUND})",
            i + 2
        );
    }
}

fn ring(variant: ProtocolVariant) {
    let (cfg, profile) = cfg(variant.config());
    assert_warm_slices_allocate_nothing(variant.name(), Machine::new(cfg, &profile));
}

#[test]
fn eager_hot_path_does_not_allocate() {
    ring(ProtocolVariant::Eager);
}

#[test]
fn superset_con_hot_path_does_not_allocate() {
    ring(ProtocolVariant::SupersetCon);
}

#[test]
fn superset_agg_hot_path_does_not_allocate() {
    ring(ProtocolVariant::SupersetAgg);
}

#[test]
fn uncorq_hot_path_does_not_allocate() {
    ring(ProtocolVariant::Uncorq);
}

#[test]
fn uncorq_pref_hot_path_does_not_allocate() {
    ring(ProtocolVariant::UncorqPref);
}

#[test]
fn ht_hot_path_does_not_allocate() {
    let (cfg, profile) = cfg(ProtocolConfig::paper(ProtocolKind::Eager));
    assert_warm_slices_allocate_nothing("ht", HtMachine::new(cfg, &profile));
}
