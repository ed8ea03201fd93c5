//! One-off tuning harness for the query kernel tiers and the hot-hub cache:
//! measures each join tier and the cached query against the seed scalar on
//! several graph shapes and cache sizes.
//!
//! Run with: `cargo run --release -p chl-bench --example hot_hub_tuning`

use std::hint::black_box;
use std::time::Instant;

use chl_core::api::{Algorithm, ChlBuilder, RankingStrategy};
use chl_core::flat::FlatIndex;
use chl_core::kernel::{self, HotHubCache};
use chl_core::labels::{join_sorted_iters, LabelEntry};
use chl_graph::csr::CsrGraph;
use chl_graph::generators::{barabasi_albert, grid_network, GridOptions};
use chl_graph::types::INFINITY;

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn measure(name: &str, g: &CsrGraph) {
    let n = g.num_vertices();
    let result = ChlBuilder::new(g)
        .ranking(RankingStrategy::Degree)
        .algorithm(Algorithm::Hybrid)
        .threads(1)
        .validate()
        .expect("valid config")
        .build()
        .expect("construction succeeds");
    let flat = FlatIndex::from_index(&result.index);
    println!(
        "== {name}: {n} vertices, {} labels (avg {:.1}) ==",
        flat.total_labels(),
        flat.total_labels() as f64 / n as f64
    );

    let mut state = 42u64;
    let pairs: Vec<(u32, u32)> = (0..200_000)
        .map(|_| {
            let r = splitmix64(&mut state);
            (((r >> 32) as u32) % n as u32, (r as u32) % n as u32)
        })
        .collect();

    let t = Instant::now();
    let mut sum = 0u64;
    for &(u, v) in &pairs {
        sum = sum.wrapping_add(black_box(flat.query(u, v)));
    }
    let plain_ns = t.elapsed().as_nanos() as f64 / pairs.len() as f64;
    println!("plain flat query: {plain_ns:.1} ns/query (sum {sum})");

    type JoinFn = dyn Fn(&[LabelEntry], &[LabelEntry]) -> Option<(u32, u64)>;
    let view = flat.as_view();
    let time_join = |name: &str, join: &JoinFn| {
        let t = Instant::now();
        let mut s = 0u64;
        for &(u, v) in &pairs {
            let d = join(view.labels_of(u), view.labels_of(v))
                .map(|(_, d)| d)
                .unwrap_or(INFINITY);
            s = s.wrapping_add(black_box(d));
        }
        println!(
            "  join {name:<12} {:.1} ns/query",
            t.elapsed().as_nanos() as f64 / pairs.len() as f64
        );
    };
    time_join("seed_iters", &|a, b| {
        join_sorted_iters(a.iter().copied(), b.iter().copied())
    });
    time_join("scalar", &kernel::join_scalar);
    time_join("branchless", &kernel::join_branchless);
    time_join("gallop", &kernel::join_gallop);
    time_join("adaptive", &kernel::join_adaptive);

    for k in [4u32, 8, 16, 32] {
        let cache = HotHubCache::build(&flat.as_index_view(), k);
        let iview = flat.as_index_view();
        let t = Instant::now();
        let mut csum = 0u64;
        for &(u, v) in &pairs {
            csum = csum.wrapping_add(black_box(iview.query_cached(&cache, u, v)));
        }
        let cached_ns = t.elapsed().as_nanos() as f64 / pairs.len() as f64;
        assert_eq!(sum, csum, "cached answers must match");
        println!(
            "  cached k={k:<3} {cached_ns:.1} ns/query ({:+.1}% vs plain), {} KiB",
            100.0 * (cached_ns - plain_ns) / plain_ns,
            cache.memory_bytes() / 1024
        );
    }
}

fn main() {
    measure("ba_2000", &barabasi_albert(2_000, 4, 7));
    measure("ba_20000", &barabasi_albert(20_000, 4, 7));
    measure(
        "grid_64x64",
        &grid_network(
            &GridOptions {
                rows: 64,
                cols: 64,
                ..GridOptions::default()
            },
            7,
        ),
    );
}
