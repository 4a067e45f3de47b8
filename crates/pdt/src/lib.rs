//! Positional Delta Trees (PDTs): in-memory differential updates.
//!
//! Vectorwise never updates columnar data in place: modifications are kept in
//! memory in *Positional Delta Trees* and merged into the stable tuple stream
//! on the fly during scans (Héman et al., SIGMOD 2010; Section 2.1 of the
//! reproduced paper). This crate implements:
//!
//! * the [`Pdt`] structure itself — insert / delete / modify actions keyed by
//!   stable position, with the running-delta bookkeeping needed for
//!   positional translation;
//! * the translation functions of Figure 4: [`Pdt::rid_to_sid`],
//!   [`Pdt::sid_to_rid_low`] and [`Pdt::sid_to_rid_high`];
//! * [`merge`]: a re-initializable, columnar merge cursor that applies PDT
//!   changes to a stable tuple stream for an arbitrary RID range — untouched
//!   runs of the stable image copied whole, touched positions row by row —
//!   the operation a CScan must restart for every out-of-order chunk it
//!   receives;
//! * [`stack`]: stacked PDTs ("differences on differences") used for snapshot
//!   isolation, with composition (propagation) of layers and the
//!   transaction primitives the engine's snapshot-isolated update path is
//!   built on ([`PdtStack::absorb_top`], [`PdtStack::split_upper`]);
//! * [`translate`]: RID ↔ SID range translation and the scan plan built on
//!   it ([`plan_scan`]: clamp, translate, prune under the empty-PDT gate),
//!   shared by the execution engine and the discrete-event simulator, so
//!   both executors read the same pages for the same visible range;
//! * [`checkpoint`]: materializing stable storage + PDT into a brand-new
//!   table image, as performed by a PDT checkpoint (Figure 7);
//! * [`wal`]: the write-ahead-log codec for committed write sets — a
//!   commit is logged as the serialized private PDT per table, so replay
//!   is the same [`PdtStack::absorb_top`] a live commit performs;
//! * [`table`]: the per-table update state both executors hold — the
//!   published `(Snapshot, PdtStack, commit_seq, epoch)` ([`TableState`]:
//!   pin, adopt a storage master change, commit with first-committer-wins,
//!   apply a live or replayed record, freeze → install a checkpoint), the
//!   immutable [`TablePin`] scans read through and a writer's private layer
//!   ([`TableWrites`]). No locks, no log: the engine adds those around it.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod checkpoint;
pub mod merge;
pub mod pdt;
pub mod stack;
pub mod table;
pub mod translate;
pub mod wal;

pub use crate::pdt::{Pdt, UpdateStats};
pub use checkpoint::{checkpoint_stack, checkpoint_table};
pub use merge::{merge_columns, MergeCursor, SliceSource, StableSource};
pub use stack::PdtStack;
pub use table::{TablePin, TableState, TableWrites};
pub use translate::{plan_scan, sid_range_to_rid_range};
pub use wal::{decode_commit, encode_commit, CommitTableRecord};
