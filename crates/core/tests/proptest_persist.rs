//! Property-based tests for the persistence subsystem: for arbitrary graphs,
//! every serving path over the `.chl` format — the copying loader, the
//! zero-copy borrowed view and the mmap-backed index — answers every query
//! byte-identically to the in-memory index it came from, for both entries
//! encodings (flat records and delta+varint compressed); flat↔compressed
//! round trips are lossless and re-encoding is byte-stable; and random
//! single-byte corruption (anywhere in the file, skip table and padding
//! included) never loads successfully and never panics, in either encoding.
//!
//! The legacy v1/v2 formats are read-only, so their files cannot be
//! generated per case: their coverage runs over the frozen golden fixtures
//! instead, exhaustively — every byte of each file flipped, through every
//! loader that accepts the version.

use std::path::{Path, PathBuf};

use proptest::prelude::*;

use chl_core::flat::FlatIndex;
use chl_core::mapped::MmapIndex;
use chl_core::persist::{self, AlignedBytes, SaveOptions};
use chl_core::pll::sequential_pll;
use chl_graph::{CsrGraph, GraphBuilder};
use chl_ranking::degree_ranking;

fn arb_graph() -> impl Strategy<Value = CsrGraph> {
    (
        2usize..24,
        proptest::collection::vec((0u32..24, 0u32..24, 1u32..50), 1..80),
    )
        .prop_map(|(n, edges)| {
            let mut b = GraphBuilder::new_undirected();
            b.ensure_vertices(n);
            for (u, v, w) in edges {
                b.add_edge(u % n as u32, v % n as u32, w);
            }
            b.build().expect("positive weights")
        })
}

fn scratch_file(tag: &str, bytes: &[u8]) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "chl-proptest-{}-{:?}-{tag}.chl",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::write(&path, bytes).unwrap();
    path
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn flat_round_trip_is_query_identical(g in arb_graph()) {
        let ranking = degree_ranking(&g);
        let index = sequential_pll(&g, &ranking).index;

        let flat = FlatIndex::from_index(&index);
        let bytes = flat.to_bytes();
        let reloaded = FlatIndex::from_bytes(&bytes).expect("clean bytes load");

        prop_assert_eq!(&reloaded, &flat);
        prop_assert_eq!(reloaded.to_index().expect("valid shape"), index.clone());

        let n = g.num_vertices() as u32;
        for u in 0..n {
            for v in 0..n {
                prop_assert_eq!(reloaded.query(u, v), index.query(u, v));
                prop_assert_eq!(reloaded.query_with_hub(u, v), index.query_with_hub(u, v));
            }
        }
    }

    #[test]
    fn owned_view_and_mmap_backends_answer_byte_identically(g in arb_graph()) {
        let ranking = degree_ranking(&g);
        let index = sequential_pll(&g, &ranking).index;
        let owned = FlatIndex::from_index(&index);

        // Zero-copy view borrowed straight from the serialized bytes.
        let aligned = AlignedBytes::from_slice(&owned.to_bytes());
        let view = persist::view_bytes(&aligned).expect("clean v2 bytes view");

        // Mmap-backed index over the same bytes written to a real file.
        let path = scratch_file("parity", &aligned);
        let mapped = MmapIndex::open(&path).expect("clean v2 file maps");

        let n = g.num_vertices() as u32;
        // Include out-of-range ids: every backend must answer INFINITY/None,
        // never panic, through identical code paths.
        for u in 0..n + 2 {
            for v in 0..n + 2 {
                let expect = index.query(u, v);
                prop_assert_eq!(owned.query(u, v), expect, "owned ({}, {})", u, v);
                prop_assert_eq!(view.query(u, v), expect, "view ({}, {})", u, v);
                prop_assert_eq!(mapped.view().query(u, v), expect, "mmap ({}, {})", u, v);
                let expect_hub = index.query_with_hub(u, v);
                prop_assert_eq!(view.query_with_hub(u, v), expect_hub);
                prop_assert_eq!(mapped.view().query_with_hub(u, v), expect_hub);
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn single_byte_corruption_never_loads(g in arb_graph(), pos in 0usize..10_000, flip in 1u8..=255) {
        let ranking = degree_ranking(&g);
        let index = sequential_pll(&g, &ranking).index;
        let mut bytes = FlatIndex::from_index(&index).to_bytes();
        let pos = pos % bytes.len();
        bytes[pos] ^= flip;

        // Whatever byte was flipped — header, section data, alignment
        // padding — every loader must reject the file with a typed error:
        // the copying path, the zero-copy view and the mmap open alike.
        prop_assert!(FlatIndex::from_bytes(&bytes).is_err(), "copy-load, flip at byte {}", pos);
        let aligned = AlignedBytes::from_slice(&bytes);
        prop_assert!(persist::view_bytes(&aligned).is_err(), "view, flip at byte {}", pos);
        let path = scratch_file("corrupt", &bytes);
        prop_assert!(MmapIndex::open(&path).is_err(), "mmap, flip at byte {}", pos);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn flat_and_compressed_round_trips_are_query_identical(g in arb_graph()) {
        let ranking = degree_ranking(&g);
        let index = sequential_pll(&g, &ranking).index;
        let flat = FlatIndex::from_index(&index);

        let flat_bytes = flat.to_bytes();
        let comp_bytes = flat.to_bytes_with(&SaveOptions::compressed());
        // The compressed file decodes back to the identical index...
        let from_flat = FlatIndex::from_bytes(&flat_bytes).expect("flat bytes load");
        let from_comp = FlatIndex::from_bytes(&comp_bytes).expect("compressed bytes load");
        prop_assert_eq!(&from_comp, &flat);
        prop_assert_eq!(&from_comp, &from_flat);

        // ...and every borrowed serving path over the compressed bytes
        // answers byte-identically to the in-memory index, including
        // out-of-range ids.
        let aligned = AlignedBytes::from_slice(&comp_bytes);
        let view = persist::open_view(&aligned).expect("clean compressed bytes view");
        prop_assert!(view.is_compressed());
        let path = scratch_file("comp-parity", &comp_bytes);
        let mapped = MmapIndex::open(&path).expect("clean compressed file opens");
        prop_assert!(mapped.is_compressed());
        let n = g.num_vertices() as u32;
        for u in 0..n + 2 {
            for v in 0..n + 2 {
                let expect = index.query(u, v);
                prop_assert_eq!(view.query(u, v), expect, "view ({}, {})", u, v);
                prop_assert_eq!(mapped.view().query(u, v), expect, "mmap ({}, {})", u, v);
                let expect_hub = index.query_with_hub(u, v);
                prop_assert_eq!(view.query_with_hub(u, v), expect_hub);
                prop_assert_eq!(mapped.view().query_with_hub(u, v), expect_hub);
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compressed_re_encoding_is_byte_stable(g in arb_graph()) {
        let ranking = degree_ranking(&g);
        let flat = FlatIndex::from_index(&sequential_pll(&g, &ranking).index);
        let comp = flat.to_bytes_with(&SaveOptions::compressed());
        // decode → re-encode reproduces the exact bytes (canonical varints
        // make the encoding injective), through both load paths.
        let decoded = FlatIndex::from_bytes(&comp).expect("compressed bytes load");
        prop_assert_eq!(&decoded.to_bytes_with(&SaveOptions::compressed()), &comp);
        let aligned = AlignedBytes::from_slice(&comp);
        let reowned = persist::open_view(&aligned).expect("view").to_owned_index();
        prop_assert_eq!(&reowned.to_bytes_with(&SaveOptions::compressed()), &comp);
        // Crossing encodings is stable too: flat bytes of the decoded
        // index equal the directly written flat bytes.
        prop_assert_eq!(decoded.to_bytes(), flat.to_bytes());
    }

    #[test]
    fn single_byte_corruption_never_loads_compressed(g in arb_graph(), pos in 0usize..10_000, flip in 1u8..=255) {
        let ranking = degree_ranking(&g);
        let index = sequential_pll(&g, &ranking).index;
        let mut bytes = FlatIndex::from_index(&index).to_bytes_with(&SaveOptions::compressed());
        let pos = pos % bytes.len();
        bytes[pos] ^= flip;

        // Whatever byte was flipped — header, flags word, skip table,
        // encoded blob, alignment padding — every loader must reject the
        // file with a typed error, never a panic.
        prop_assert!(FlatIndex::from_bytes(&bytes).is_err(), "copy-load, flip at byte {}", pos);
        let aligned = AlignedBytes::from_slice(&bytes);
        prop_assert!(persist::open_view(&aligned).is_err(), "open_view, flip at byte {}", pos);
        prop_assert!(persist::view_bytes(&aligned).is_err(), "view_bytes, flip at byte {}", pos);
        let path = scratch_file("comp-corrupt", &bytes);
        prop_assert!(MmapIndex::open(&path).is_err(), "mmap, flip at byte {}", pos);
        std::fs::remove_file(&path).ok();
    }
}

fn fixture(name: &str) -> Vec<u8> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read(path).expect("golden fixture present")
}

/// Every byte of `bytes`, XORed with each flip value in turn.
fn single_byte_flips(bytes: &[u8]) -> impl Iterator<Item = (usize, u8, Vec<u8>)> + '_ {
    (0..bytes.len()).flat_map(move |pos| {
        [0x01u8, 0x80, 0xFF].into_iter().map(move |flip| {
            let mut corrupt = bytes.to_vec();
            corrupt[pos] ^= flip;
            (pos, flip, corrupt)
        })
    })
}

#[test]
fn v1_round_trip_is_query_identical() {
    // The frozen v1 file loads through the copying path into exactly the
    // index its v3 sibling holds.
    let v1 = FlatIndex::from_bytes(&fixture("golden.v1.chl")).expect("v1 fixture loads");
    let v3 = FlatIndex::from_bytes(&fixture("golden.v3-flat.chl")).expect("v3 fixture loads");
    assert_eq!(v1, v3);
    let n = v3.num_vertices() as u32;
    for u in 0..n + 2 {
        for v in 0..n + 2 {
            assert_eq!(v1.query(u, v), v3.query(u, v), "({u}, {v})");
            assert_eq!(v1.query_with_hub(u, v), v3.query_with_hub(u, v));
        }
    }
}

#[test]
fn single_byte_corruption_never_loads_v1() {
    // v1 only loads through the copying path; a flip anywhere — header,
    // whole-payload CRC, payload — must be a typed error, never a panic.
    for (pos, flip, corrupt) in single_byte_flips(&fixture("golden.v1.chl")) {
        assert!(
            FlatIndex::from_bytes(&corrupt).is_err(),
            "copy-load, byte {pos} ^ {flip:#04x}"
        );
    }
}

#[test]
fn single_byte_corruption_never_loads_v2() {
    // A v2 header has no CRC of its own, so header flips must be caught by
    // the length, flags, section-checksum or semantic checks, on the
    // copying loader, the borrowed view and the mmap open alike.
    for name in ["golden.v2-flat.chl", "golden.v2-compressed.chl"] {
        let path = scratch_file("v2-corrupt", b"");
        for (pos, flip, corrupt) in single_byte_flips(&fixture(name)) {
            assert!(
                FlatIndex::from_bytes(&corrupt).is_err(),
                "{name} copy-load, byte {pos} ^ {flip:#04x}"
            );
            let aligned = AlignedBytes::from_slice(&corrupt);
            assert!(
                persist::open_view(&aligned).is_err(),
                "{name} open_view, byte {pos} ^ {flip:#04x}"
            );
            std::fs::write(&path, &corrupt).unwrap();
            assert!(
                MmapIndex::open(&path).is_err(),
                "{name} mmap, byte {pos} ^ {flip:#04x}"
            );
        }
        std::fs::remove_file(&path).ok();
    }
}
