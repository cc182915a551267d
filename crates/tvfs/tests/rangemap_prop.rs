//! Property tests: `RangeMap` behaves exactly like a naive point map,
//! stays in canonical form, and reports what each update displaces.

use proptest::prelude::*;
use tvfs::{Extent, Linear, RangeMap, Segmentable};

const UNIVERSE: u64 = 256;

#[derive(Debug, Clone)]
enum Op {
    Insert {
        start: u64,
        len: u64,
        val: u64,
    },
    Remove {
        start: u64,
        len: u64,
    },
    /// Re-map exactly the `seg`-th segment (modulo the count) to `val`.
    ReplaceSegment {
        seg: usize,
        val: u64,
    },
    /// Re-insert `len` units `off` into the `seg`-th segment with the
    /// value they already have.
    Reinsert {
        seg: usize,
        off: u64,
        len: u64,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..UNIVERSE, 0..32u64, 0..8u64).prop_map(|(start, len, val)| Op::Insert {
            start,
            len,
            val
        }),
        (0..UNIVERSE, 0..48u64).prop_map(|(start, len)| Op::Remove { start, len }),
        (0..64usize, 0..8u64).prop_map(|(seg, val)| Op::ReplaceSegment { seg, val }),
        (0..64usize, 0..32u64, 0..32u64).prop_map(|(seg, off, len)| Op::Reinsert { seg, off, len }),
    ]
}

/// The update `op` makes on `real`: `(start, len, Some(value))` for a
/// mapping, `None` for an unmapping. Segment-relative ops resolve against
/// the current segments.
fn resolve<V: Segmentable>(
    real: &RangeMap<V>,
    op: &Op,
    make_val: &impl Fn(u64) -> V,
) -> (u64, u64, Option<V>) {
    let nth = |seg: usize| {
        let n = real.segment_count();
        (n > 0).then(|| real.iter().nth(seg % n).expect("in range"))
    };
    match *op {
        Op::Insert { start, len, val } => (start, len, Some(make_val(val))),
        Op::Remove { start, len } => (start, len, None),
        Op::ReplaceSegment { seg, val } => match nth(seg) {
            Some(e) => (e.start, e.len, Some(make_val(val))),
            None => (0, 0, None),
        },
        Op::Reinsert { seg, off, len } => match nth(seg) {
            Some(e) => {
                let off = off % e.len;
                let len = len.min(e.len - off);
                (e.start + off, len, Some(e.value.advance(off)))
            }
            None => (0, 0, None),
        },
    }
}

/// Applies `op` to `real`, checking that the extents it reports as
/// displaced are what `overlapping` showed for the range just before.
fn apply<V: Segmentable>(real: &mut RangeMap<V>, op: &Op, make_val: &impl Fn(u64) -> V) {
    let (start, len, value) = resolve(real, op, make_val);
    let before = real.overlapping(start, len);
    let mut got: Vec<Extent<V>> = Vec::new();
    match value {
        Some(v) => real.replace(start, len, v, |e| got.push(e)),
        None => real.remove_with(start, len, |e| got.push(e)),
    }
    assert_eq!(got, before, "displaced extents of {op:?}");
}

/// No two adjacent segments could be one: every update leaves the same
/// segmentation whichever path it took.
fn assert_canonical<V: Segmentable>(real: &RangeMap<V>) {
    let segs: Vec<Extent<V>> = real.iter().collect();
    for w in segs.windows(2) {
        assert!(
            !(w[0].start + w[0].len == w[1].start && w[0].value.can_append(w[0].len, &w[1].value)),
            "mergeable neighbours {:?} and {:?}",
            w[0],
            w[1]
        );
    }
}

/// Applies ops to both the real map and a naive per-point model, then
/// checks every point plus the structural invariants.
fn check_against_model<V: Segmentable>(
    ops: &[Op],
    make_val: impl Fn(u64) -> V,
    advance_model: impl Fn(V, u64) -> V,
) {
    let mut real: RangeMap<V> = RangeMap::new();
    let mut model: Vec<Option<V>> = vec![None; (UNIVERSE + 64) as usize];

    for op in ops {
        let (start, len, value) = resolve(&real, op, &make_val);
        apply(&mut real, op, &make_val);
        for i in 0..len {
            model[(start + i) as usize] = value.map(|v| advance_model(v, i));
        }
        assert_canonical(&real);
    }

    // Point-wise equality.
    for (pos, want) in model.iter().enumerate() {
        assert_eq!(real.get(pos as u64), *want, "at position {pos}");
    }
    // Covered count matches model population.
    let pop = model.iter().filter(|m| m.is_some()).count() as u64;
    assert_eq!(real.covered(), pop);
    // Extents are disjoint, sorted and non-empty.
    let mut last_end = 0u64;
    let mut first = true;
    for e in real.iter() {
        assert!(e.len > 0);
        if !first {
            assert!(e.start >= last_end, "overlapping or unsorted extents");
        }
        last_end = e.start + e.len;
        first = false;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn constant_map_matches_model(ops in proptest::collection::vec(op_strategy(), 0..64)) {
        check_against_model(&ops, |v| v as u32, |v, _| v);
    }

    #[test]
    fn linear_map_matches_model(ops in proptest::collection::vec(op_strategy(), 0..64)) {
        check_against_model(&ops, |v| Linear(v * 1000), |v, d| Linear(v.0 + d));
    }

    #[test]
    fn set_matches_model(ops in proptest::collection::vec(op_strategy(), 0..64)) {
        check_against_model(&ops, |_| (), |v, _| v);
    }

    #[test]
    fn overlapping_agrees_with_pointwise_get(
        ops in proptest::collection::vec(op_strategy(), 0..32),
        qs in 0..UNIVERSE,
        ql in 0..64u64,
    ) {
        let mut real: RangeMap<Linear> = RangeMap::new();
        for op in &ops {
            apply(&mut real, op, &|v| Linear(v * 1000));
        }
        // Reconstruct the queried window from `overlapping` and compare
        // against point queries.
        let mut from_overlap: Vec<Option<Linear>> = vec![None; ql as usize];
        for e in real.overlapping(qs, ql) {
            for i in 0..e.len {
                from_overlap[(e.start + i - qs) as usize] = Some(e.value.advance(i));
            }
        }
        for i in 0..ql {
            prop_assert_eq!(from_overlap[i as usize], real.get(qs + i));
        }
    }

    #[test]
    fn next_mapped_is_first_hit(
        ops in proptest::collection::vec(op_strategy(), 0..32),
        q in 0..UNIVERSE,
    ) {
        let mut real: RangeMap<u32> = RangeMap::new();
        for op in &ops {
            apply(&mut real, op, &|v| v as u32);
        }
        let naive = (q..UNIVERSE + 64).find(|&p| real.get(p).is_some());
        match real.next_mapped(q) {
            Some(e) => {
                prop_assert_eq!(Some(e.start), naive);
                // Every unit the extent claims must be mapped with its value.
                for i in 0..e.len {
                    prop_assert_eq!(real.get(e.start + i), Some(e.value.advance(i)));
                }
                // And the unit after must not continue the run.
                prop_assert!(real.get(e.start + e.len) != Some(e.value.advance(e.len))
                    || real.get(e.start + e.len).is_none()
                    || e.start + e.len > real.end());
            }
            None => prop_assert_eq!(naive, None),
        }
    }
}
