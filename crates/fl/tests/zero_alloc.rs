//! The zero-allocation guarantee of the training hot path, asserted at the level of a full
//! federated round, and the heap-allocation bound on per-round bid collection.
//!
//! Runs only with the `alloc-count` feature, which compiles in fmore-ml's thread-local
//! matrix-allocation counter:
//!
//! ```bash
//! cargo test -p fmore-fl --features alloc-count
//! ```
//!
//! The rounds run on the inline engine so every matrix allocation lands on this test's
//! thread (the counter is thread-local precisely so concurrently running tests cannot
//! pollute it). Inline and pooled execution share the identical slot-state code path — the
//! determinism suite pins that their histories are bit-identical — so the inline assertion
//! covers the pooled round too.

#![cfg(feature = "alloc-count")]

use fmore_fl::config::FlConfig;
use fmore_fl::engine::{collect_adopted_bids, RoundEngine};
use fmore_fl::selection::SelectionStrategy;
use fmore_fl::trainer::FederatedTrainer;
use fmore_ml::dataset::TaskKind;
use fmore_ml::matrix::alloc_count;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Heap allocations made by the current thread (thread-local for the same reason as the
    /// matrix counter: concurrently running tests must not pollute each other).
    static HEAP_ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, counting every allocation and reallocation per thread.
struct CountingAllocator;

// SAFETY: every method forwards its arguments unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a `const`-initialised `Cell<usize>` with no
// destructor, so touching it neither allocates nor can observe a torn-down slot.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        HEAP_ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` for this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        HEAP_ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: `ptr`, `layout` and `new_size` are passed through as received.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// After the warm-up rounds have sized every slot arena, further rounds — selection, local
/// training across all winners, FedAvg, and the global evaluation — allocate no matrices.
#[test]
fn steady_state_round_is_matrix_allocation_free() {
    for strategy in [SelectionStrategy::random(), SelectionStrategy::fmore()] {
        let mut trainer = FederatedTrainer::with_engine(
            FlConfig::fast_test(TaskKind::MnistO),
            strategy.clone(),
            7,
            RoundEngine::inline(),
        )
        .expect("fast config is valid");
        // Warm-up: the first rounds size slot models, arenas, and parameter buffers (batch
        // shapes vary with the drawn subsets, so give every buffer a chance to reach its
        // steady-state capacity).
        for _ in 0..3 {
            trainer.run_round().expect("warm-up round runs");
        }
        alloc_count::reset();
        for _ in 0..3 {
            trainer.run_round().expect("steady-state round runs");
        }
        assert_eq!(
            alloc_count::count(),
            0,
            "{}: steady-state rounds must perform zero matrix allocations",
            strategy.name()
        );
    }
}

/// Clearing the slot state forces the warm-up allocations again — demonstrating the counter
/// actually observes this workload (the zero above is not vacuous).
#[test]
fn cleared_slots_pay_warmup_allocations_again() {
    let mut trainer = FederatedTrainer::with_engine(
        FlConfig::fast_test(TaskKind::MnistO),
        SelectionStrategy::random(),
        8,
        RoundEngine::inline(),
    )
    .expect("fast config is valid");
    for _ in 0..3 {
        trainer.run_round().expect("warm-up round runs");
    }
    trainer.clear_slot_state();
    alloc_count::reset();
    trainer.run_round().expect("post-clear round runs");
    assert!(
        alloc_count::count() > 0,
        "recreating slot state must be visible to the allocation counter"
    );
}

/// A round of bid collection caps each client's adopted strategy and nothing more: the
/// capacity vector and the declared-quality vector per client, plus the bid list itself. A
/// per-round equilibrium solve (a coordinate maximisation allocates its iterate and a probe
/// per sweep) cannot hide under this bound.
#[test]
fn bid_collection_allocates_at_most_twice_per_client() {
    let mut trainer = FederatedTrainer::with_engine(
        FlConfig::fast_test(TaskKind::MnistO),
        SelectionStrategy::fmore(),
        9,
        RoundEngine::inline(),
    )
    .expect("fast config is valid");
    let max_data = trainer.config().partition.size_range.1 as f64;
    for _ in 0..3 {
        trainer.refresh_clients();
        let clients = trainer.clients();
        let before = HEAP_ALLOCATIONS.with(Cell::get);
        let bids = collect_adopted_bids(clients, max_data, 10).expect("clients adopted");
        let spent = HEAP_ALLOCATIONS.with(Cell::get) - before;
        assert_eq!(bids.len(), clients.len());
        assert!(
            spent <= 2 * clients.len() + 1,
            "{spent} allocations to collect {} bids",
            clients.len()
        );
        assert!(
            spent >= clients.len(),
            "every bid owns its quality vector, so the counter must see this workload"
        );
    }
}
