//! A columnar pivot of a row [`Batch`]: one vector per field position
//! (struct-of-arrays), with the per-tuple metadata (`id`, `root`,
//! `lineage`, `event_time`) in parallel arrays.
//!
//! Links carry rows only; DESIGN.md §10 records why the columnar data
//! plane was removed. This pivot stays solely because the repo
//! benchmark's `layers` binary prices it (`frame.pivot_ns_per_row`,
//! `frame.unpivot_ns_per_row`) and `benchmark/` is read-only for
//! ordinary PRs. The file goes with the `[benchmark]` issue that
//! retires those rows.
//!
//! A frame requires a uniform schema: every tuple the same arity,
//! every column a single [`Value`] discriminant, arity ≥ 1.
//! [`Frame::from_batch`] rejects anything else and hands the batch back.

use crate::tuple::{Batch, Tuple, Value};
use std::sync::Arc;

/// One column: all rows' values at one field position.
#[derive(Debug)]
enum ColumnData {
    Int(Vec<i64>),
    Float(Vec<f64>),
    /// Interned strings (shared with the source tuples).
    Str(Vec<Arc<str>>),
    Bool(Vec<bool>),
    /// Interned byte payloads (shared with the source tuples).
    Bytes(Vec<Arc<[u8]>>),
}

impl ColumnData {
    fn with_capacity(template: &Value, n: usize) -> Self {
        match template {
            Value::Int(_) => ColumnData::Int(Vec::with_capacity(n)),
            Value::Float(_) => ColumnData::Float(Vec::with_capacity(n)),
            Value::Str(_) => ColumnData::Str(Vec::with_capacity(n)),
            Value::Bool(_) => ColumnData::Bool(Vec::with_capacity(n)),
            Value::Bytes(_) => ColumnData::Bytes(Vec::with_capacity(n)),
        }
    }

    /// Append one value; the caller has already checked the discriminant.
    fn push(&mut self, v: &Value) {
        match (self, v) {
            (ColumnData::Int(c), Value::Int(x)) => c.push(*x),
            (ColumnData::Float(c), Value::Float(x)) => c.push(*x),
            (ColumnData::Str(c), Value::Str(x)) => c.push(x.clone()),
            (ColumnData::Bool(c), Value::Bool(x)) => c.push(*x),
            (ColumnData::Bytes(c), Value::Bytes(x)) => c.push(x.clone()),
            _ => unreachable!("from_batch validated column discriminants"),
        }
    }

    /// The value at `row` (payload shared, not copied).
    fn value(&self, row: usize) -> Value {
        match self {
            ColumnData::Int(c) => Value::Int(c[row]),
            ColumnData::Float(c) => Value::Float(c[row]),
            ColumnData::Str(c) => Value::Str(c[row].clone()),
            ColumnData::Bool(c) => Value::Bool(c[row]),
            ColumnData::Bytes(c) => Value::Bytes(c[row].clone()),
        }
    }
}

/// A columnar batch (see the module docs).
#[derive(Debug)]
pub struct Frame {
    columns: Vec<ColumnData>,
    event_times: Vec<Option<u64>>,
    ids: Vec<u64>,
    roots: Vec<u64>,
    lineages: Vec<u64>,
}

impl Frame {
    /// Pivot a row batch into a frame. Fails — handing the batch back
    /// untouched — when the batch is empty, tuples disagree on arity,
    /// or a column mixes [`Value`] discriminants.
    pub fn from_batch(batch: Batch) -> Result<Frame, Batch> {
        let Some(first) = batch.first() else { return Err(batch) };
        let arity = first.values.len();
        if arity == 0 {
            return Err(batch);
        }
        let uniform = batch.iter().skip(1).all(|t| {
            t.values.len() == arity
                && t.values
                    .iter()
                    .zip(first.values.iter())
                    .all(|(a, b)| std::mem::discriminant(a) == std::mem::discriminant(b))
        });
        if !uniform {
            return Err(batch);
        }
        let n = batch.len();
        let mut frame = Frame {
            columns: first.values.iter().map(|v| ColumnData::with_capacity(v, n)).collect(),
            event_times: Vec::with_capacity(n),
            ids: Vec::with_capacity(n),
            roots: Vec::with_capacity(n),
            lineages: Vec::with_capacity(n),
        };
        for t in &batch {
            for (c, v) in frame.columns.iter_mut().zip(t.values.iter()) {
                c.push(v);
            }
            frame.event_times.push(t.event_time);
            frame.ids.push(t.id);
            frame.roots.push(t.root);
            frame.lineages.push(t.lineage);
        }
        Ok(frame)
    }

    /// Rows in the frame.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the frame has no rows (never true for frames built by
    /// [`Frame::from_batch`]).
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Fields per row.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Materialise the frame back into a row batch (allocates each
    /// row's field slice; payloads stay shared).
    pub fn to_batch(&self) -> Batch {
        (0..self.len())
            .map(|i| Tuple {
                values: self.columns.iter().map(|c| c.value(i)).collect(),
                event_time: self.event_times[i],
                id: self.ids[i],
                root: self.roots[i],
                lineage: self.lineages[i],
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::tuple_of;

    fn stamped(mut t: Tuple, id: u64, root: u64, lineage: u64) -> Tuple {
        t.id = id;
        t.root = root;
        t.lineage = lineage;
        t
    }

    #[test]
    fn round_trips_uniform_batches() {
        let batch: Batch = (0..5)
            .map(|i| {
                stamped(
                    tuple_of([Value::from(format!("k{i}")), Value::Int(i)]).at(i as u64),
                    i as u64 + 10,
                    i as u64 + 20,
                    i as u64 + 30,
                )
            })
            .collect();
        let frame = Frame::from_batch(batch.clone()).expect("uniform batch");
        assert_eq!(frame.len(), 5);
        assert_eq!(frame.arity(), 2);
        assert_eq!(frame.to_batch(), batch, "round trip must be lossless");
    }

    #[test]
    fn rejects_empty_mixed_arity_and_mixed_types() {
        assert!(Frame::from_batch(vec![]).is_err());
        assert!(Frame::from_batch(vec![Tuple::new(Vec::<Value>::new())]).is_err(), "zero arity");
        let mixed_arity = vec![tuple_of([1i64]), tuple_of([1i64, 2i64])];
        assert!(Frame::from_batch(mixed_arity.clone()).is_err());
        let mixed_types = vec![tuple_of([1i64]), tuple_of(["x"])];
        let Err(back) = Frame::from_batch(mixed_types) else { panic!("must reject") };
        assert_eq!(back.len(), 2, "rejected batch is handed back intact");
        let _ = mixed_arity;
    }

    #[test]
    fn bool_and_bytes_columns_hash_and_round_trip() {
        let batch: Batch = vec![
            tuple_of([Value::Bool(true), Value::from(vec![1u8, 2])]),
            tuple_of([Value::Bool(false), Value::from(vec![3u8])]),
        ];
        let back = Frame::from_batch(batch.clone()).unwrap().to_batch();
        assert_eq!(back, batch);
        // Round-tripped values hash (and so route) as the originals do.
        for (b, t) in back.iter().zip(&batch) {
            for c in 0..2 {
                assert_eq!(b.values[c].hash64(), t.values[c].hash64());
            }
        }
    }
}
