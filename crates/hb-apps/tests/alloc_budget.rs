//! Allocation budget of the six subject apps on a warm thread.
//!
//! A counting global allocator counts the heap allocations (`alloc`,
//! `alloc_zeroed` and `realloc` calls) each thread makes, in a
//! thread-local counter, so tests running side by side do not see each
//! other's. Each test warms its thread with one whole lifecycle (the
//! interpreter bootstrap, the core-library base and the thread's stores
//! fill), then counts three phases of a second one, the lifecycle
//! benchmark's phases:
//!
//! - **boot**: building the six apps;
//! - **first requests**: one iteration of each app's request script;
//! - **steady round**: `K = 2` iterations per app after a warm-up round,
//!   each app reseeded first (uncounted), as a `steady_serve` round does.
//!
//! A phase fails when it allocates more than [`SLACK`] above its budget,
//! the count measured when the budget was last set. A count is a
//! property of the program, not of the host, so it repeats exactly; it
//! moves only when the code does.

use hb_apps::{all_apps, build_app_with, run_workload, AppSpec};
use hummingbird::{ExecTier, Hummingbird, Mode};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting per thread.
struct Counting;

impl Counting {
    fn count() {
        // A `const`-initialised `Cell` needs no lazy set-up and has no
        // destructor, so counting never allocates or fails; `try_with`
        // only guards the thread's last moments.
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds `GlobalAlloc`'s contract; counting touches only a
// thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Counting::count();
        // SAFETY: the caller's guarantees for `layout` carry over.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Counting::count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Counting::count();
        // SAFETY: `ptr` was allocated by this allocator, that is by
        // `System`, with `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Request-script iterations per app in one steady round.
const K: usize = 2;

/// How far above its budget a phase may allocate.
const SLACK: f64 = 0.05;

/// Allocations of one lifecycle's phases: boot, first requests, one
/// steady round.
type Phases = [u64; 3];

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn reseed(spec: &AppSpec, hb: &mut Hummingbird) {
    if !spec.seed.is_empty() {
        hb.eval(spec.seed)
            .unwrap_or_else(|e| panic!("{}: reseed failed: {e}", spec.name));
    }
}

/// One lifecycle of the six apps in `mode` on `tier`, counting each
/// phase on this thread.
fn lifecycle(mode: Mode, tier: ExecTier) -> Phases {
    let specs = all_apps();
    let start = allocations();
    let mut apps: Vec<Hummingbird> = specs
        .iter()
        .map(|spec| build_app_with(spec, Hummingbird::builder().mode(mode).exec_tier(tier)))
        .collect();
    let booted = allocations();
    for (spec, hb) in specs.iter().zip(&mut apps) {
        run_workload(spec, hb, 1);
    }
    let first = allocations() - booted;
    for (spec, hb) in specs.iter().zip(&mut apps) {
        reseed(spec, hb);
        run_workload(spec, hb, K);
    }
    let mut round = 0;
    for (spec, hb) in specs.iter().zip(&mut apps) {
        reseed(spec, hb);
        let before = allocations();
        run_workload(spec, hb, K);
        round += allocations() - before;
    }
    [booted - start, first, round]
}

/// Warms this thread, then checks a second lifecycle against `budget`.
fn within_budget(mode: Mode, tier: ExecTier, budget: Phases) {
    lifecycle(mode, tier);
    let counted = lifecycle(mode, tier);
    let phases = ["boot", "first requests", "steady round"];
    let over: Vec<String> = (0..phases.len())
        .filter(|&i| counted[i] as f64 > budget[i] as f64 * (1.0 + SLACK))
        .map(|i| format!("{} {} > {}", phases[i], counted[i], budget[i]))
        .collect();
    assert!(
        over.is_empty(),
        "{mode:?} {tier:?} allocated {counted:?} against {budget:?}: {}",
        over.join(", ")
    );
}

#[test]
fn full_tree_walk_stays_within_budget() {
    within_budget(Mode::Full, ExecTier::TreeWalk, [12_690, 21_198, 31_356]);
}

#[test]
fn full_bytecode_stays_within_budget() {
    within_budget(Mode::Full, ExecTier::Bytecode, [12_325, 19_089, 24_720]);
}

#[test]
fn original_tree_walk_stays_within_budget() {
    within_budget(Mode::Original, ExecTier::TreeWalk, [7_558, 15_636, 31_016]);
}

#[test]
fn original_bytecode_stays_within_budget() {
    within_budget(Mode::Original, ExecTier::Bytecode, [7_183, 13_495, 24_380]);
}
