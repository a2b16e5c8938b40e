//! Criterion microbenchmark for bundle cold-start: validate offsets +
//! hashes, then assemble the serving extractor, which borrows the
//! lexicon/feature/blocklist arenas straight out of the loaded bytes.
//!
//! Runs against the committed smoke bundle `benches/data/smoke.paeb`,
//! written by `pae-bench freeze --products 60` (MASTER_SEED=42, so the
//! fixture is reproducible bit for bit). Bytes are pre-read outside the
//! timed region: the bench isolates validate+assemble, not disk I/O.
//!
//! Like `crf_micro`, a custom `main` merges full-mode results into
//! `BENCH_pipeline.json`; smoke mode (no `--bench`) persists nothing.

use std::path::Path;
use std::sync::Arc;

use criterion::{black_box, criterion_group, Criterion};

use pae_core::LoadedBundle;

fn bench_bundle_load(c: &mut Criterion) {
    let path = Path::new(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/benches/data/smoke.paeb"
    ));
    let bytes: Arc<[u8]> = std::fs::read(path)
        .unwrap_or_else(|e| {
            panic!(
                "{}: {e}\n(regenerate with: cargo run --release -p pae-bench --bin freeze -- \
                 {} --products 60 --force)",
                path.display(),
                path.display()
            )
        })
        .into();

    let mut group = c.benchmark_group("bundle_load");
    group.sample_size(20);
    group.bench_function("zero_copy", |b| {
        b.iter(|| {
            let loaded = LoadedBundle::from_shared(black_box(bytes.clone())).expect("load");
            let extractor = loaded.extractor().expect("assemble");
            extractor.attrs().len()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_bundle_load);

/// Runs the groups, then merges full-mode results into the
/// `BENCH_pipeline.json` ledger (`pae_bench::finish_benches`).
fn main() {
    benches();
    pae_bench::finish_benches();
}
