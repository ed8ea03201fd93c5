//! Compact binary snapshots of graphs.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic   "CHLG"            4 bytes
//! version u32                = 1
//! kind    u8                 0 = undirected, 1 = directed
//! n       u64                number of vertices
//! m       u64                number of logical edges
//! edges   m * (u32 u32 u32)  u, v, w triples
//! ```
//!
//! The snapshot stores logical edges rather than raw CSR arrays so that the
//! reader can rebuild (and thereby re-validate) the CSR through the ordinary
//! [`GraphBuilder`] path.

use std::io::{Read, Write};

use crate::builder::GraphBuilder;
use crate::csr::{CsrGraph, GraphKind};
use crate::error::GraphError;

const MAGIC: &[u8; 4] = b"CHLG";
const VERSION: u32 = 1;
/// Bytes before the edge records: magic, version, kind, `n` and `m`.
const HEADER_LEN: usize = 25;
/// Bytes per edge record: `u`, `v` and `w` as `u32`s.
const EDGE_LEN: usize = 12;

/// Serializes `g` into a byte buffer.
pub fn to_bytes(g: &CsrGraph) -> Vec<u8> {
    let mut buf = Vec::with_capacity(HEADER_LEN + g.num_edges() * EDGE_LEN);
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.push(match g.kind() {
        GraphKind::Undirected => 0,
        GraphKind::Directed => 1,
    });
    buf.extend_from_slice(&(g.num_vertices() as u64).to_le_bytes());
    buf.extend_from_slice(&(g.num_edges() as u64).to_le_bytes());
    for e in g.edges() {
        buf.extend_from_slice(&e.u.to_le_bytes());
        buf.extend_from_slice(&e.v.to_le_bytes());
        buf.extend_from_slice(&e.w.to_le_bytes());
    }
    buf
}

/// The little-endian `u32` at `data[at..at + 4]`; `at` is in bounds.
fn u32_at(data: &[u8], at: usize) -> u32 {
    let mut word = [0u8; 4];
    word.copy_from_slice(&data[at..at + 4]);
    u32::from_le_bytes(word)
}

/// The little-endian `u64` at `data[at..at + 8]`; `at` is in bounds.
fn u64_at(data: &[u8], at: usize) -> u64 {
    let mut word = [0u8; 8];
    word.copy_from_slice(&data[at..at + 8]);
    u64::from_le_bytes(word)
}

/// Deserializes a graph from a byte buffer produced by [`to_bytes`]. The
/// buffer must be exactly as long as its header says: a short or padded
/// buffer, or an edge count whose size overflows, is
/// [`GraphError::Corrupt`].
pub fn from_bytes(data: &[u8]) -> Result<CsrGraph, GraphError> {
    if data.len() < HEADER_LEN {
        return Err(GraphError::Corrupt("snapshot shorter than header".into()));
    }
    if &data[..4] != MAGIC {
        return Err(GraphError::Corrupt("bad magic".into()));
    }
    let version = u32_at(data, 4);
    if version != VERSION {
        return Err(GraphError::Corrupt(format!(
            "unsupported version {version}"
        )));
    }
    let kind = match data[8] {
        0 => GraphKind::Undirected,
        1 => GraphKind::Directed,
        other => return Err(GraphError::Corrupt(format!("unknown graph kind {other}"))),
    };
    let n = u64_at(data, 9);
    let m = u64_at(data, 17);
    let found = data.len() - HEADER_LEN;
    let expected = m
        .checked_mul(EDGE_LEN as u64)
        .and_then(|len| usize::try_from(len).ok())
        .ok_or_else(|| {
            GraphError::Corrupt(format!("edge count {m} overflows the addressable size"))
        })?;
    if found != expected {
        return Err(GraphError::Corrupt(format!(
            "expected {expected} bytes of edge data, found {found}"
        )));
    }
    if n > u64::from(u32::MAX) {
        return Err(GraphError::TooManyVertices(n));
    }
    let mut builder = match kind {
        GraphKind::Undirected => GraphBuilder::new_undirected(),
        GraphKind::Directed => GraphBuilder::new_directed(),
    };
    builder.ensure_vertices(n as usize);
    for edge in data[HEADER_LEN..].chunks_exact(EDGE_LEN) {
        builder.add_edge(u32_at(edge, 0), u32_at(edge, 4), u32_at(edge, 8));
    }
    builder.build()
}

/// Writes a binary snapshot to `writer`.
pub fn write_binary<W: Write>(g: &CsrGraph, mut writer: W) -> Result<(), GraphError> {
    writer.write_all(&to_bytes(g))?;
    Ok(())
}

/// Reads a binary snapshot from `reader`.
pub fn read_binary<R: Read>(mut reader: R) -> Result<CsrGraph, GraphError> {
    let mut data = Vec::new();
    reader.read_to_end(&mut data)?;
    from_bytes(&data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{barabasi_albert, grid_network, GridOptions};

    #[test]
    fn roundtrip_undirected() {
        let g = grid_network(
            &GridOptions {
                rows: 9,
                cols: 4,
                ..GridOptions::default()
            },
            2,
        );
        let bytes = to_bytes(&g);
        let back = from_bytes(&bytes).unwrap();
        assert_eq!(g, back);
    }

    #[test]
    fn roundtrip_directed() {
        let mut b = GraphBuilder::new_directed();
        b.add_edge(0, 1, 3);
        b.add_edge(1, 2, 4);
        b.add_edge(2, 0, 5);
        let g = b.build().unwrap();
        let back = from_bytes(&to_bytes(&g)).unwrap();
        assert_eq!(g, back);
    }

    #[test]
    fn roundtrip_through_io_traits() {
        let g = barabasi_albert(80, 2, 6);
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        let back = read_binary(buf.as_slice()).unwrap();
        assert_eq!(g, back);
    }

    #[test]
    fn corrupt_inputs_are_rejected() {
        assert!(from_bytes(b"short").is_err());

        let g = grid_network(
            &GridOptions {
                rows: 3,
                cols: 3,
                ..GridOptions::default()
            },
            0,
        );
        let mut bytes = to_bytes(&g);
        bytes[0] = b'X'; // break magic
        assert!(from_bytes(&bytes).is_err());

        let mut truncated = to_bytes(&g);
        truncated.truncate(truncated.len() - 5);
        assert!(from_bytes(&truncated).is_err());

        let mut bad_version = to_bytes(&g);
        bad_version[4] = 99;
        assert!(from_bytes(&bad_version).is_err());

        let mut padded = to_bytes(&g);
        padded.push(0);
        assert!(matches!(from_bytes(&padded), Err(GraphError::Corrupt(_))));
    }

    #[test]
    fn hostile_edge_counts_are_corrupt_not_a_panic() {
        // m * 12 wraps to 8 in 64-bit arithmetic: a length check done with
        // unchecked multiplication accepts the 24 trailing bytes, and the
        // record loop then reads past their end.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.push(0);
        bytes.extend_from_slice(&4u64.to_le_bytes());
        bytes.extend_from_slice(&0x1555_5555_5555_5556u64.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 24]);
        assert!(matches!(
            read_binary(bytes.as_slice()),
            Err(GraphError::Corrupt(_))
        ));

        // An edge count whose byte size does not fit u64 at all.
        bytes[17..25].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(from_bytes(&bytes), Err(GraphError::Corrupt(_))));

        // A vertex count beyond the u32 id space is refused before the
        // builder is asked to allocate for it.
        let mut huge_n = to_bytes(&GraphBuilder::new_undirected().build().unwrap());
        huge_n[9..17].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            from_bytes(&huge_n),
            Err(GraphError::TooManyVertices(_))
        ));
    }
}
