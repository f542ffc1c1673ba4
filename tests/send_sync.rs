//! Compile-time proof of the concurrency contract: the shared
//! immutable half of the read path (index handles on every backend,
//! the engine, the executor's inputs/outputs) is `Send + Sync`, and
//! the per-thread mutable half (`QueryContext`) is `Send`.
//!
//! These are `static_assertions`-style checks: if any type loses the
//! bound (say, a `RefCell` sneaks back into a cache), this file stops
//! compiling — no test needs to run.

use std::sync::Arc;

use xks::core::engine::SearchEngine;
use xks::core::executor::BatchStats;
use xks::core::{
    CorpusSource, MemoryCorpus, QueryContext, SearchError, SearchResponse, ShardSet, TreeCorpus,
};
use xks::persist::pool::BufferPool;
use xks::persist::IndexReader;

const fn assert_send_sync<T: Send + Sync + ?Sized>() {}
const fn assert_send<T: Send + ?Sized>() {}

// Evaluated at compile time — the test body just forces monomorphization.
const _: () = {
    // Index handles: the CorpusSource backends, the trait object, and
    // the storage substrate under the disk backend.
    assert_send_sync::<TreeCorpus>();
    assert_send_sync::<MemoryCorpus>();
    assert_send_sync::<ShardSet>();
    assert_send_sync::<IndexReader>();
    assert_send_sync::<Arc<dyn CorpusSource>>();
    assert_send_sync::<dyn CorpusSource>();
    assert_send_sync::<BufferPool>();

    // The engine itself (every constructor produces the same type),
    // and what the executor moves across threads.
    assert_send_sync::<SearchEngine>();
    assert_send::<Result<SearchResponse, SearchError>>();
    assert_send::<BatchStats>();

    // The per-thread half only needs Send (it is never shared).
    assert_send::<QueryContext>();
};

#[test]
fn send_sync_contract_holds() {
    // The const block above is the real assertion; this test exists so
    // the contract shows up in test output by name.
}
