//! RID ↔ SID range translation and scan planning shared by every executor.
//!
//! A scan is planned in visible-row (RID) space but reads stable storage in
//! SID space; the two are related through a table's PDT (Figure 4 of the
//! paper). Both the execution engine's `ScanOperator` and the discrete-event
//! simulator plan their scans with [`plan_scan`] — the one place that
//! decides which stable ranges a visible range reads and when zone maps may
//! prune them — so the page sets the two executors touch for the same
//! visible range are identical: the property the engine==simulator
//! I/O-parity tests and the `fig_updates` bench gate rely on.

use scanshare_common::{RangeList, Rid, Sid, TupleRange};
use scanshare_storage::snapshot::Snapshot;
use scanshare_storage::zone::ZonePredicate;

use crate::pdt::Pdt;

/// Plans a scan of the visible rows `rid_range` of a pinned `(snapshot,
/// pdt)` pair. Returns, in order:
///
/// * the **requested** RID ranges — `rid_range` clamped to the visible row
///   count, minus whatever zone maps pruned;
/// * the **stable** (SID) ranges to register with the buffer manager —
///   empty when the range touches no stable data (an empty range, pure PDT
///   inserts, or everything pruned), in which case no scan is registered;
/// * the number of stable tuples zone-map pruning **skipped**.
///
/// `zone_pred` enables data skipping: chunks whose zone metadata proves no
/// row can satisfy the predicate leave the scan's interest. Pruning is only
/// sound while the PDT is **empty** — RID and SID then coincide and no
/// pending modify can turn a base-failing row into a match — so a non-empty
/// PDT prunes nothing. The caller must still apply the predicate row-level
/// (zone metadata is conservative: kept chunks may hold non-matching rows).
pub fn plan_scan(
    snapshot: &Snapshot,
    pdt: &Pdt,
    rid_range: TupleRange,
    zone_pred: Option<&ZonePredicate>,
) -> (RangeList, RangeList, u64) {
    let stable = snapshot.stable_tuples();
    let rid_range = rid_range.intersect(&TupleRange::new(0, pdt.visible_count(stable)));
    let sid_ranges = rid_range_to_sid_ranges(pdt, &rid_range, stable);
    let requested = if rid_range.is_empty() {
        RangeList::new()
    } else {
        RangeList::from_ranges([rid_range])
    };
    match zone_pred {
        Some(pred) if pdt.is_empty() && !sid_ranges.is_empty() => {
            let (kept, skipped) = snapshot.prune_sid_ranges(pred, &sid_ranges);
            // With an empty PDT the requested RID ranges are the SID ranges:
            // dropping the pruned chunks there too keeps a scan's drain
            // phase from reading them through the page path.
            (kept.clone(), kept, skipped)
        }
        _ => (requested, sid_ranges, 0),
    }
}

/// Converts a visible-row (RID) range into the stable (SID) ranges that must
/// be read from storage, using the PDT's positional translation. The result
/// is empty when the range covers no stable data (an empty range, or rows
/// that exist only as PDT inserts).
fn rid_range_to_sid_ranges(pdt: &Pdt, rid_range: &TupleRange, stable_tuples: u64) -> RangeList {
    if rid_range.is_empty() {
        return RangeList::new();
    }
    let lo = pdt.rid_to_sid(Rid::new(rid_range.start), stable_tuples);
    let hi = pdt.rid_to_sid(Rid::new(rid_range.end - 1), stable_tuples);
    let hi_sid = (hi.raw() + 1).min(stable_tuples);
    RangeList::single(lo.raw().min(stable_tuples), hi_sid.max(lo.raw()))
}

/// Translates a chunk's SID range into the widest RID range it can produce,
/// using `SIDtoRIDlow` for the lower bound and `SIDtoRIDhigh` for the upper
/// bound (Section 2.1).
pub fn sid_range_to_rid_range(pdt: &Pdt, sid_range: &TupleRange) -> TupleRange {
    if sid_range.is_empty() {
        return TupleRange::new(0, 0);
    }
    let lo = pdt.sid_to_rid_low(Sid::new(sid_range.start)).raw();
    let hi = pdt.sid_to_rid_high(Sid::new(sid_range.end - 1)).raw() + 1;
    TupleRange::new(lo, hi.max(lo))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rid_sid_translation_round_trips_through_a_pdt() {
        let mut pdt = Pdt::new(1);
        pdt.delete(Rid::new(0), 100).unwrap();
        pdt.insert(Rid::new(10), vec![1], 100).unwrap();
        // Visible rows 0..99 map to stable tuples 1..99 (tuple 0 is deleted,
        // the inserted row is anchored inside the range).
        let sids = rid_range_to_sid_ranges(&pdt, &TupleRange::new(0, 99), 100);
        assert_eq!(sids.ranges(), &[TupleRange::new(1, 99)]);
        let rids = sid_range_to_rid_range(&pdt, &TupleRange::new(0, 100));
        assert_eq!(rids, TupleRange::new(0, 100));
        assert!(rid_range_to_sid_ranges(&pdt, &TupleRange::new(5, 5), 100).is_empty());
        assert!(sid_range_to_rid_range(&pdt, &TupleRange::new(5, 5)).is_empty());
    }

    #[test]
    fn empty_pdt_translation_is_the_identity() {
        let pdt = Pdt::new(2);
        let sids = rid_range_to_sid_ranges(&pdt, &TupleRange::new(10, 40), 100);
        assert_eq!(sids.ranges(), &[TupleRange::new(10, 40)]);
        assert_eq!(
            sid_range_to_rid_range(&pdt, &TupleRange::new(10, 40)),
            TupleRange::new(10, 40)
        );
    }

    #[test]
    fn trailing_inserts_map_to_no_stable_data() {
        let mut pdt = Pdt::new(1);
        pdt.insert(Rid::new(10), vec![7], 10).unwrap();
        // The trailing insert occupies RID 10 but is anchored past the last
        // stable tuple: the translated range is clamped to the stable count.
        let sids = rid_range_to_sid_ranges(&pdt, &TupleRange::new(10, 11), 10);
        assert!(sids.ranges().iter().all(|r| r.end <= 10));
    }
}
