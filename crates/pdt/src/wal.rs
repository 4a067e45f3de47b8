//! WAL codec for committed write sets.
//!
//! A transaction commit is logged as the *serialized private PDT* of every
//! table it wrote, not as an operation list: the private layer is the exact
//! delta `PdtStack::absorb_top` folds into the shared stack, so replaying a
//! commit record is literally `absorb_top(decoded_pdt, stable_tuples)` —
//! the same code path a live commit takes. First-committer-wins guarantees
//! the visible stream beneath each commit is identical at replay time, so
//! anchors and insert offsets resolve to the same rows.
//!
//! # Record body layout (all integers little-endian)
//!
//! ```text
//! commit  := table_count:u32, table_entry*
//! entry   := table_id:u64, commit_seq:u64, visible_before:u64,
//!            pdt_len:u32, pdt
//! pdt     := column_count:u32, node_count:u32, node*
//! node    := sid:u64, flags:u8 (bit0 = deleted),
//!            modify_count:u32, (col:u32, value:i64)*,
//!            insert_count:u32, (value:i64 × column_count)*
//! ```
//!
//! `visible_before` is the visible row count of the table at the moment the
//! commit applied; recovery validates it against the rebuilt stack before
//! replaying, which catches a stale durable image, a missing bulk append or
//! record misordering as a typed [`Error::WalCorrupt`] instead of silently
//! diverging.

use std::sync::Arc;

use scanshare_common::{Error, Result, TableId};

use crate::pdt::{Node, Pdt};

/// One table's share of a commit record.
#[derive(Debug, Clone)]
pub struct CommitTableRecord {
    /// The table the write set applies to.
    pub table: TableId,
    /// The table's commit sequence number after this commit.
    pub commit_seq: u64,
    /// Visible rows of the table immediately before this commit applied.
    pub visible_before: u64,
    /// The committed private PDT (the delta `absorb_top` folds in), shared
    /// so a record can carry a pin's flattened layer without a copy.
    pub pdt: Arc<Pdt>,
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_i64(buf: &mut Vec<u8>, v: i64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.buf.len())
            .ok_or_else(|| {
                Error::WalCorrupt(format!(
                    "commit record truncated: wanted {n} bytes at offset {}",
                    self.pos
                ))
            })?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

fn encode_pdt_into(buf: &mut Vec<u8>, pdt: &Pdt) {
    put_u32(buf, pdt.column_count() as u32);
    put_u32(buf, pdt.stats().nodes as u32);
    for (sid, node) in pdt.nodes_from(0) {
        put_u64(buf, sid);
        buf.push(u8::from(node.deleted));
        put_u32(buf, node.modifies.len() as u32);
        for (&col, &value) in &node.modifies {
            put_u32(buf, col as u32);
            put_i64(buf, value);
        }
        put_u32(buf, node.inserts.len() as u32);
        for row in &node.inserts {
            for &value in row {
                put_i64(buf, value);
            }
        }
    }
}

fn decode_pdt_from(r: &mut Reader<'_>) -> Result<Pdt> {
    let column_count = r.u32()? as usize;
    let node_count = r.u32()?;
    let mut pdt = Pdt::new(column_count);
    let mut last_sid = None;
    for _ in 0..node_count {
        let sid = r.u64()?;
        if last_sid.is_some_and(|last| sid <= last) {
            return Err(Error::WalCorrupt(format!(
                "commit record nodes out of order at sid {sid}"
            )));
        }
        last_sid = Some(sid);
        let flags = r.u8()?;
        if flags > 1 {
            return Err(Error::WalCorrupt(format!(
                "commit record node flags {flags:#x} unknown"
            )));
        }
        let mut node = Node {
            deleted: flags & 1 == 1,
            ..Node::default()
        };
        let modify_count = r.u32()?;
        if node.deleted && modify_count > 0 {
            return Err(Error::WalCorrupt(format!(
                "commit record node {sid} is deleted but modifies {modify_count} cells"
            )));
        }
        for _ in 0..modify_count {
            let col = r.u32()? as usize;
            if col >= column_count {
                return Err(Error::WalCorrupt(format!(
                    "commit record modifies column {col} of a {column_count}-column table"
                )));
            }
            let value = r.i64()?;
            node.modifies.insert(col, value);
        }
        let insert_count = r.u32()?;
        for _ in 0..insert_count {
            let mut row = Vec::with_capacity(column_count);
            for _ in 0..column_count {
                row.push(r.i64()?);
            }
            node.inserts.push(row);
        }
        pdt.set_node(sid, node);
    }
    Ok(pdt)
}

/// Serializes one commit's per-table write sets into a WAL record body.
pub fn encode_commit(tables: &[CommitTableRecord]) -> Vec<u8> {
    let mut buf = Vec::new();
    put_u32(&mut buf, tables.len() as u32);
    for entry in tables {
        put_u64(&mut buf, entry.table.raw() as u64);
        put_u64(&mut buf, entry.commit_seq);
        put_u64(&mut buf, entry.visible_before);
        let mut pdt_buf = Vec::new();
        encode_pdt_into(&mut pdt_buf, &entry.pdt);
        put_u32(&mut buf, pdt_buf.len() as u32);
        buf.extend_from_slice(&pdt_buf);
    }
    buf
}

/// Deserializes a commit record body. The frame checksum already verified
/// the bytes; errors here mean the record contradicts its own structure and
/// surface as [`Error::WalCorrupt`].
pub fn decode_commit(body: &[u8]) -> Result<Vec<CommitTableRecord>> {
    let mut r = Reader::new(body);
    let table_count = r.u32()?;
    let mut out = Vec::with_capacity(table_count as usize);
    for _ in 0..table_count {
        let raw = r.u64()?;
        let table = u32::try_from(raw)
            .map_err(|_| Error::WalCorrupt(format!("commit record table id {raw} overflows")))?;
        let commit_seq = r.u64()?;
        let visible_before = r.u64()?;
        let pdt_len = r.u32()? as usize;
        let pdt_bytes = r.take(pdt_len)?;
        let mut pr = Reader::new(pdt_bytes);
        let pdt = decode_pdt_from(&mut pr)?;
        if !pr.done() {
            return Err(Error::WalCorrupt(format!(
                "commit record pdt has {} trailing bytes",
                pdt_bytes.len() - pr.pos
            )));
        }
        out.push(CommitTableRecord {
            table: TableId::new(table),
            commit_seq,
            visible_before,
            pdt: Arc::new(pdt),
        });
    }
    if !r.done() {
        return Err(Error::WalCorrupt(format!(
            "commit record has {} trailing bytes",
            body.len() - r.pos
        )));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use scanshare_common::Rid;
    use scanshare_storage::datagen::{splitmix64, Value};

    /// Merge a PDT over explicit stable rows (independent reference).
    fn merged(pdt: &Pdt, stable_rows: &[Vec<Value>]) -> Vec<Vec<Value>> {
        let mut out = Vec::new();
        for sid in 0..=stable_rows.len() as u64 {
            let node = pdt.node(sid).cloned().unwrap_or_default();
            out.extend(node.inserts);
            if sid < stable_rows.len() as u64 && !node.deleted {
                let mut row = stable_rows[sid as usize].clone();
                for (col, value) in node.modifies {
                    row[col] = value;
                }
                out.push(row);
            }
        }
        out
    }

    fn random_pdt(seed: u64, stable: u64, ops: u64) -> Pdt {
        let mut pdt = Pdt::new(2);
        let mut s = seed;
        for step in 0..ops {
            s = splitmix64(s ^ step);
            let visible = pdt.visible_count(stable);
            match s % 3 {
                0 => {
                    let pos = s.rotate_left(17) % (visible + 1);
                    pdt.insert(Rid::new(pos), vec![step as Value, -(step as Value)], stable)
                        .unwrap();
                }
                1 if visible > 0 => {
                    let pos = s.rotate_left(23) % visible;
                    pdt.delete(Rid::new(pos), stable).unwrap();
                }
                2 if visible > 0 => {
                    let pos = s.rotate_left(31) % visible;
                    pdt.modify(Rid::new(pos), (s >> 9) as usize % 2, 7, stable)
                        .unwrap();
                }
                _ => {}
            }
        }
        pdt
    }

    fn stable_rows(n: u64) -> Vec<Vec<Value>> {
        (0..n).map(|i| vec![i as Value, (i * 3) as Value]).collect()
    }

    #[test]
    fn empty_commit_round_trips() {
        let body = encode_commit(&[]);
        assert!(decode_commit(&body).unwrap().is_empty());
    }

    #[test]
    fn random_pdts_round_trip_byte_exactly() {
        let stable = 40u64;
        let rows = stable_rows(stable);
        for seed in 0..8u64 {
            let pdt = random_pdt(0xDEC0 + seed, stable, 60);
            let record = CommitTableRecord {
                table: TableId::new(5),
                commit_seq: seed + 1,
                visible_before: pdt.visible_count(stable),
                pdt: pdt.clone().into(),
            };
            let body = encode_commit(&[record]);
            let decoded = decode_commit(&body).unwrap();
            assert_eq!(decoded.len(), 1);
            assert_eq!(decoded[0].table, TableId::new(5));
            assert_eq!(decoded[0].commit_seq, seed + 1);
            assert_eq!(
                merged(&decoded[0].pdt, &rows),
                merged(&pdt, &rows),
                "decoded PDT merges to the same visible stream (seed {seed})"
            );
            assert_eq!(
                decoded[0].pdt.visible_count(stable),
                pdt.visible_count(stable)
            );
            assert_eq!(decoded[0].pdt.stats(), pdt.stats(), "seed {seed}");
        }
    }

    /// A live PDT and its WAL-replayed copy count modified cells alike: a
    /// cell modified twice counts once, and deleting a modified stable tuple
    /// takes its modified cells out of the count.
    #[test]
    fn replayed_pdt_reports_the_live_stats() {
        let stable = 10;
        let mut pdt = Pdt::new(2);
        pdt.modify(Rid::new(3), 0, 7, stable).unwrap();
        pdt.modify(Rid::new(3), 0, 8, stable).unwrap();
        pdt.modify(Rid::new(3), 1, 9, stable).unwrap();
        pdt.modify(Rid::new(5), 1, 1, stable).unwrap();
        pdt.delete(Rid::new(5), stable).unwrap();
        let body = encode_commit(&[CommitTableRecord {
            table: TableId::new(1),
            commit_seq: 1,
            visible_before: stable,
            pdt: pdt.clone().into(),
        }]);
        let decoded = decode_commit(&body).unwrap();
        let live = pdt.stats();
        assert_eq!(live.modifies, 2);
        assert_eq!(live.deletes, 1);
        assert_eq!(decoded[0].pdt.stats(), live);
    }

    #[test]
    fn multi_table_commits_round_trip() {
        let a = random_pdt(1, 20, 15);
        let b = random_pdt(2, 30, 15);
        let body = encode_commit(&[
            CommitTableRecord {
                table: TableId::new(1),
                commit_seq: 4,
                visible_before: a.visible_count(20),
                pdt: a.into(),
            },
            CommitTableRecord {
                table: TableId::new(2),
                commit_seq: 9,
                visible_before: b.visible_count(30),
                pdt: b.into(),
            },
        ]);
        let decoded = decode_commit(&body).unwrap();
        assert_eq!(decoded.len(), 2);
        assert_eq!(decoded[0].table, TableId::new(1));
        assert_eq!(decoded[1].table, TableId::new(2));
        assert_eq!(decoded[1].commit_seq, 9);
    }

    #[test]
    fn truncated_and_trailing_bytes_are_rejected() {
        let pdt = random_pdt(3, 10, 10);
        let body = encode_commit(&[CommitTableRecord {
            table: TableId::new(1),
            commit_seq: 1,
            visible_before: pdt.visible_count(10),
            pdt: pdt.into(),
        }]);
        for cut in [1, body.len() / 2, body.len() - 1] {
            assert!(
                matches!(decode_commit(&body[..cut]), Err(Error::WalCorrupt(_))),
                "cut at {cut} must be rejected"
            );
        }
        let mut long = body.clone();
        long.push(0);
        assert!(matches!(decode_commit(&long), Err(Error::WalCorrupt(_))));
    }

    #[test]
    fn out_of_range_modify_column_is_rejected() {
        let mut pdt = Pdt::new(2);
        pdt.modify(Rid::new(0), 1, 5, 10).unwrap();
        let mut body = encode_commit(&[CommitTableRecord {
            table: TableId::new(1),
            commit_seq: 1,
            visible_before: 10,
            pdt: pdt.into(),
        }]);
        // Patch the modify column index (u32 right after the node header) to
        // an out-of-range value. Layout: 4 (count) + 8+8+8 (entry header) +
        // 4 (pdt_len) + 4 (column_count) + 4 (node_count) + 8 (sid) + 1
        // (flags) + 4 (modify_count) = 53 bytes before the column index.
        body[53] = 9;
        assert!(matches!(decode_commit(&body), Err(Error::WalCorrupt(_))));
    }

    /// A deleted stable tuple has no modified cells, so a record whose
    /// deleted node lists some contradicts itself (and would count them in
    /// `stats().modifies`).
    #[test]
    fn deleted_node_with_modified_cells_is_rejected() {
        let mut pdt = Pdt::new(2);
        pdt.modify(Rid::new(0), 1, 5, 10).unwrap();
        let mut body = encode_commit(&[CommitTableRecord {
            table: TableId::new(1),
            commit_seq: 1,
            visible_before: 10,
            pdt: pdt.into(),
        }]);
        // The node's flags byte: 4 + 24 (entry header) + 4 (pdt_len) + 4
        // (column_count) + 4 (node_count) + 8 (sid) = 48 bytes in.
        assert_eq!(body[48], 0);
        body[48] = 1;
        assert!(matches!(decode_commit(&body), Err(Error::WalCorrupt(_))));
    }

    /// The on-disk encoding of a fixed commit, byte for byte: a log written
    /// by an earlier build still replays. The PDT over 8 stable tuples holds
    /// an insert before stable tuple 2, a delete of 4, a modify of 6 and an
    /// insert at the end anchor.
    #[test]
    fn encoding_is_pinned() {
        let stable = 8;
        let mut pdt = Pdt::new(2);
        pdt.insert(Rid::new(2), vec![100, 101], stable).unwrap();
        pdt.insert(Rid::new(9), vec![200, 201], stable).unwrap();
        pdt.delete(Rid::new(5), stable).unwrap();
        pdt.modify(Rid::new(6), 1, -7, stable).unwrap();
        let body = encode_commit(&[CommitTableRecord {
            table: TableId::new(3),
            commit_seq: 1,
            visible_before: stable,
            pdt: pdt.into(),
        }]);
        #[rustfmt::skip]
        let pinned: Vec<u8> = [
            &[1, 0, 0, 0][..],                                    // table_count
            &[3, 0, 0, 0, 0, 0, 0, 0],                            // table_id
            &[1, 0, 0, 0, 0, 0, 0, 0],                            // commit_seq
            &[8, 0, 0, 0, 0, 0, 0, 0],                            // visible_before
            &[120, 0, 0, 0],                                      // pdt_len
            &[2, 0, 0, 0, 4, 0, 0, 0],                            // columns, nodes
            &[2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0], // sid 2: 1 insert
            &[100, 0, 0, 0, 0, 0, 0, 0, 101, 0, 0, 0, 0, 0, 0, 0],
            &[4, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0], // sid 4: deleted
            &[6, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0],             // sid 6: 1 modify
            &[1, 0, 0, 0, 0xf9, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0],
            &[8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0], // sid 8: 1 insert
            &[200, 0, 0, 0, 0, 0, 0, 0, 201, 0, 0, 0, 0, 0, 0, 0],
        ]
        .concat();
        assert_eq!(body, pinned);
        let decoded = decode_commit(&pinned).unwrap();
        assert_eq!(
            merged(&decoded[0].pdt, &stable_rows(stable)),
            [
                [0, 0],
                [1, 3],
                [100, 101],
                [2, 6],
                [3, 9],
                [5, 15],
                [6, -7],
                [7, 21],
                [200, 201]
            ]
        );
    }
}
