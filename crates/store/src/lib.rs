//! Relational-style shredding store.
//!
//! The paper (§5.2) shreds every XML document into three PostgreSQL
//! tables before the algorithms run:
//!
//! * `label (label, ID)` — distinct labels with a unique number,
//! * `element (node's label, Dewey, level, label number sequence,
//!   content feature)` — one row per element node,
//! * `value (node's label, Dewey, attribute, keyword)` — one row per
//!   interesting word occurrence.
//!
//! This crate reproduces those three tables in memory (columnar structs
//! of rows) plus the lookups the algorithms need: *keyword → Dewey
//! codes* against the `value` table, and *Dewey → label-number-sequence /
//! content feature* against the `element` table. A snapshot can be
//! persisted to and reloaded from JSON, standing in for the database
//! (see `DESIGN.md` §2).

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod json;
pub mod partition;
pub mod shred;
pub mod snapshot;
pub mod tables;
#[cfg(test)]
#[path = "../../../tests/common/tempdir.rs"]
mod tempdir;

pub use partition::{partition, CorpusPart};
pub use shred::{shred, shred_document};
pub use tables::{ElementRow, ShreddedDoc, ValueRow, WordSource};
