//! An extent tree: a map from `u64` ranges to values, with splitting and
//! coalescing.
//!
//! This is the data structure behind both the native file systems' extent
//! maps (file page → device page) and Mux's Block Lookup Table (file block →
//! tier; paper §2.2 "we use an extent tree as a high-performance data
//! structure"). Keys are abstract units (pages, blocks or bytes — the caller
//! chooses).

use std::collections::BTreeMap;

/// A value that can live in a [`RangeMap`] segment.
///
/// Segments cover `[start, start+len)`; the value logically varies along the
/// segment via [`Segmentable::advance`] (e.g. a device-page mapping advances
/// page-by-page, while a tier id is constant).
pub trait Segmentable: Copy + Eq + std::fmt::Debug {
    /// The value `delta` units into a segment that starts with `self`.
    fn advance(&self, delta: u64) -> Self;

    /// Whether a segment holding `other` directly after a segment of length
    /// `len` holding `self` can be merged into one segment.
    fn can_append(&self, len: u64, other: &Self) -> bool;
}

/// Constant-valued segments: tier ids, flags.
impl Segmentable for u32 {
    fn advance(&self, _delta: u64) -> Self {
        *self
    }

    fn can_append(&self, _len: u64, other: &Self) -> bool {
        self == other
    }
}

/// Valueless segments: a `RangeMap<()>` is a set of ranges.
impl Segmentable for () {
    fn advance(&self, _delta: u64) -> Self {}

    fn can_append(&self, _len: u64, _other: &Self) -> bool {
        true
    }
}

/// Linearly advancing segments: contiguous page mappings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Linear(pub u64);

impl Segmentable for Linear {
    fn advance(&self, delta: u64) -> Self {
        Linear(self.0 + delta)
    }

    fn can_append(&self, len: u64, other: &Self) -> bool {
        self.0 + len == other.0
    }
}

/// One contiguous mapped extent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Extent<V> {
    /// First unit covered.
    pub start: u64,
    /// Number of units covered.
    pub len: u64,
    /// Value at `start` (use [`Segmentable::advance`] for later units).
    pub value: V,
}

/// An ordered map from disjoint `u64` ranges to [`Segmentable`] values.
///
/// # Examples
///
/// ```
/// use tvfs::{Linear, RangeMap};
///
/// // A file-page → device-page extent map.
/// let mut m: RangeMap<Linear> = RangeMap::new();
/// m.insert(0, 10, Linear(100));      // pages 0..10 at device 100..110
/// m.insert(3, 2, Linear(500));       // overwrite splits the extent
/// assert_eq!(m.get(2), Some(Linear(102)));
/// assert_eq!(m.get(4), Some(Linear(501)));
/// assert_eq!(m.get(5), Some(Linear(105)));
/// assert_eq!(m.segment_count(), 3);
/// assert_eq!(m.covered(), 10);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RangeMap<V> {
    segs: BTreeMap<u64, (u64, V)>,
    /// Incrementally maintained unit count (queried on hot paths).
    covered: u64,
}

impl<V: Segmentable> RangeMap<V> {
    /// Creates an empty map.
    pub fn new() -> Self {
        RangeMap {
            segs: BTreeMap::new(),
            covered: 0,
        }
    }

    /// Number of stored segments (after coalescing).
    pub fn segment_count(&self) -> usize {
        self.segs.len()
    }

    /// Whether nothing is mapped.
    pub fn is_empty(&self) -> bool {
        self.segs.is_empty()
    }

    /// Total units covered by all segments (O(1)).
    pub fn covered(&self) -> u64 {
        self.covered
    }

    /// Maps `[start, start+len)` to `value` (advancing along the range),
    /// overwriting any previous mappings in that range.
    pub fn insert(&mut self, start: u64, len: u64, value: V) {
        self.replace(start, len, value, |_| {});
    }

    /// [`insert`](Self::insert) that hands `displaced` each extent it
    /// overwrites, in order and clipped to the range: what
    /// [`overlapping`](Self::overlapping) returned just before.
    ///
    /// One walk back from `start` reads the segment there and its left
    /// neighbour. An update inside one segment that maps every unit to the
    /// value it already has is a no-op; one that covers exactly one segment
    /// rewrites its value in place unless it now joins a neighbour.
    pub fn replace(
        &mut self,
        start: u64,
        len: u64,
        value: V,
        mut displaced: impl FnMut(Extent<V>),
    ) {
        if len == 0 {
            return;
        }
        let end = start.checked_add(len).expect("range overflow");
        let mut walk = self.segs.range(..=start);
        if let Some((&s, &(l, v))) = walk.next_back() {
            if s + l >= end && v.advance(start - s) == value {
                displaced(Extent { start, len, value });
                return;
            }
            if s == start
                && l == len
                && !walk
                    .next_back()
                    .is_some_and(|(&ls, &(ll, lv))| ls + ll == start && lv.can_append(ll, &value))
            {
                let mut fwd = self.segs.range_mut(start..);
                let (_, seg) = fwd.next().expect("the segment at `start`");
                let joins_right = fwd
                    .next()
                    .is_some_and(|(&rs, &mut (_, rv))| rs == end && value.can_append(len, &rv));
                if !joins_right {
                    displaced(Extent {
                        start,
                        len,
                        value: v,
                    });
                    seg.1 = value;
                    return;
                }
            }
        }
        let (left, tail) = self.cut(start, end, &mut displaced);
        self.covered += len;
        let (mut s0, mut l0, mut v0) = (start, len, value);
        if let Some(e) = left.filter(|e| e.value.can_append(e.len, &value)) {
            (s0, l0, v0) = (e.start, e.len + len, e.value);
        }
        match tail {
            Some(t) if v0.can_append(l0, &t.value) => l0 += t.len,
            Some(t) => {
                self.segs.insert(t.start, (t.len, t.value));
            }
            None => {
                if let Some(&(rl, rv)) = self.segs.get(&end) {
                    if v0.can_append(l0, &rv) {
                        self.segs.remove(&end);
                        l0 += rl;
                    }
                }
            }
        }
        self.segs.insert(s0, (l0, v0));
    }

    /// Unmaps `[start, start+len)`, splitting boundary segments.
    pub fn remove(&mut self, start: u64, len: u64) {
        self.remove_with(start, len, |_| {});
    }

    /// [`remove`](Self::remove) that hands `displaced` each extent it
    /// unmaps, in order and clipped to the range.
    pub fn remove_with(&mut self, start: u64, len: u64, mut displaced: impl FnMut(Extent<V>)) {
        if len == 0 {
            return;
        }
        let end = start.checked_add(len).expect("range overflow");
        if let (_, Some(t)) = self.cut(start, end, &mut displaced) {
            self.segs.insert(t.start, (t.len, t.value));
        }
    }

    /// Unmaps `[start, end)` and reports what it displaces. Returns the
    /// segment that now ends at `start`, if any, and the piece of a
    /// segment that ran past `end`, which the caller maps (or merges).
    fn cut(
        &mut self,
        start: u64,
        end: u64,
        displaced: &mut impl FnMut(Extent<V>),
    ) -> (Option<Extent<V>>, Option<Extent<V>>) {
        let piece = |start, len, value| Some(Extent { start, len, value });
        let mut left = None;
        let mut tail = None;
        let mut walk = self.segs.range_mut(..=start);
        match walk.next_back() {
            Some((&s, seg)) if s < start => {
                let (l, v) = *seg;
                if s + l > start {
                    let clip = (s + l).min(end);
                    displaced(Extent {
                        start,
                        len: clip - start,
                        value: v.advance(start - s),
                    });
                    self.covered -= clip - start;
                    if s + l > end {
                        tail = piece(end, s + l - end, v.advance(end - s));
                    }
                    seg.0 = start - s;
                }
                if s + seg.0 == start {
                    left = piece(s, seg.0, v);
                }
            }
            Some(_) => {
                left = walk
                    .next_back()
                    .filter(|(&ls, &mut (ll, _))| ls + ll == start)
                    .and_then(|(&ls, &mut (ll, lv))| piece(ls, ll, lv));
            }
            None => {}
        }
        // Every segment starting inside the range.
        while let Some((&s, &(l, v))) = self.segs.range(start..end).next() {
            self.segs.remove(&s);
            let clip = (s + l).min(end);
            displaced(Extent {
                start: s,
                len: clip - s,
                value: v,
            });
            self.covered -= clip - s;
            if s + l > end {
                tail = piece(end, s + l - end, v.advance(end - s));
            }
        }
        (left, tail)
    }

    /// Value mapped at `pos`, if any.
    pub fn get(&self, pos: u64) -> Option<V> {
        let (&s, &(l, v)) = self.segs.range(..=pos).next_back()?;
        if s + l > pos {
            Some(v.advance(pos - s))
        } else {
            None
        }
    }

    /// Iterates the mapped extents intersecting `[start, start+len)`,
    /// clipped to that window.
    pub fn overlapping(&self, start: u64, len: u64) -> Vec<Extent<V>> {
        let mut out = Vec::new();
        if len == 0 {
            return out;
        }
        let end = start.saturating_add(len);
        // The segment starting before `start` may lap in.
        if let Some((&s, &(l, v))) = self.segs.range(..start).next_back() {
            if s + l > start {
                let clip_end = (s + l).min(end);
                out.push(Extent {
                    start,
                    len: clip_end - start,
                    value: v.advance(start - s),
                });
            }
        }
        for (&s, &(l, v)) in self.segs.range(start..end) {
            let clip_end = (s + l).min(end);
            out.push(Extent {
                start: s,
                len: clip_end - s,
                value: v,
            });
        }
        out
    }

    /// All extents, in order.
    pub fn iter(&self) -> impl Iterator<Item = Extent<V>> + '_ {
        self.segs.iter().map(|(&s, &(l, v))| Extent {
            start: s,
            len: l,
            value: v,
        })
    }

    /// First mapped extent at or after `pos` (clipped at the start), i.e.
    /// `SEEK_DATA`.
    pub fn next_mapped(&self, pos: u64) -> Option<Extent<V>> {
        if let Some(v) = self.get(pos) {
            let (&s, &(l, _)) = self.segs.range(..=pos).next_back().expect("get hit");
            return Some(Extent {
                start: pos,
                len: s + l - pos,
                value: v,
            });
        }
        self.segs.range(pos..).next().map(|(&s, &(l, v))| Extent {
            start: s,
            len: l,
            value: v,
        })
    }

    /// Largest mapped position + 1, or 0 if empty.
    pub fn end(&self) -> u64 {
        self.segs
            .iter()
            .next_back()
            .map(|(&s, &(l, _))| s + l)
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get() {
        let mut m = RangeMap::new();
        m.insert(10, 5, 7u32);
        assert_eq!(m.get(9), None);
        assert_eq!(m.get(10), Some(7));
        assert_eq!(m.get(14), Some(7));
        assert_eq!(m.get(15), None);
    }

    #[test]
    fn linear_values_advance() {
        let mut m = RangeMap::new();
        m.insert(100, 8, Linear(500));
        assert_eq!(m.get(100), Some(Linear(500)));
        assert_eq!(m.get(107), Some(Linear(507)));
    }

    #[test]
    fn overwrite_splits_old_segment() {
        let mut m = RangeMap::new();
        m.insert(0, 10, Linear(100));
        m.insert(3, 4, Linear(500));
        assert_eq!(m.get(2), Some(Linear(102)));
        assert_eq!(m.get(3), Some(Linear(500)));
        assert_eq!(m.get(6), Some(Linear(503)));
        assert_eq!(m.get(7), Some(Linear(107)));
        assert_eq!(m.segment_count(), 3);
        assert_eq!(m.covered(), 10);
    }

    #[test]
    fn adjacent_equal_constant_segments_coalesce() {
        let mut m = RangeMap::new();
        m.insert(0, 5, 1u32);
        m.insert(5, 5, 1u32);
        assert_eq!(m.segment_count(), 1);
        m.insert(10, 5, 2u32);
        assert_eq!(m.segment_count(), 2);
    }

    #[test]
    fn adjacent_linear_segments_coalesce_only_when_contiguous() {
        let mut m = RangeMap::new();
        m.insert(0, 4, Linear(100));
        m.insert(4, 4, Linear(104)); // contiguous on both axes
        assert_eq!(m.segment_count(), 1);
        m.insert(8, 4, Linear(999)); // key-adjacent, value not contiguous
        assert_eq!(m.segment_count(), 2);
    }

    #[test]
    fn replace_hands_back_what_it_displaces() {
        let mut m = RangeMap::new();
        m.insert(0, 4, Linear(100));
        m.insert(4, 4, Linear(300));
        let mut got = Vec::new();
        m.replace(2, 4, Linear(900), |e| got.push(e));
        let ext = |start, len, value| Extent { start, len, value };
        assert_eq!(got, vec![ext(2, 2, Linear(102)), ext(4, 2, Linear(300))]);
        assert_eq!(m.get(5), Some(Linear(903)));
        assert_eq!(m.get(6), Some(Linear(302)));
        got.clear();
        m.remove_with(1, 2, |e| got.push(e));
        assert_eq!(got, vec![ext(1, 1, Linear(101)), ext(2, 1, Linear(900))]);
        assert_eq!(m.covered(), 6);
    }

    #[test]
    fn replacing_one_segment_exactly_joins_only_what_it_continues() {
        let mut m = RangeMap::new();
        for (p, v) in [(0, 10), (1, 20), (2, 30)] {
            m.insert(p, 1, Linear(v));
        }
        m.replace(1, 1, Linear(50), |_| {});
        assert_eq!((m.segment_count(), m.get(1)), (3, Some(Linear(50))));
        m.replace(1, 1, Linear(11), |_| {});
        assert_eq!((m.segment_count(), m.get(1)), (2, Some(Linear(11))));
        assert_eq!(m.covered(), 3);
    }

    #[test]
    fn reinserting_the_value_a_range_has_changes_nothing() {
        let mut m = RangeMap::new();
        m.insert(0, 10, 3u32);
        let mut got = Vec::new();
        m.replace(2, 5, 3, |e| got.push(e));
        assert_eq!(
            got,
            vec![Extent {
                start: 2,
                len: 5,
                value: 3
            }]
        );
        assert_eq!((m.segment_count(), m.covered()), (1, 10));
    }

    #[test]
    fn remove_middle_splits() {
        let mut m = RangeMap::new();
        m.insert(0, 10, Linear(100));
        m.remove(4, 2);
        assert_eq!(m.get(3), Some(Linear(103)));
        assert_eq!(m.get(4), None);
        assert_eq!(m.get(5), None);
        assert_eq!(m.get(6), Some(Linear(106)));
        assert_eq!(m.covered(), 8);
    }

    #[test]
    fn remove_spanning_multiple_segments() {
        let mut m = RangeMap::new();
        m.insert(0, 4, 1u32);
        m.insert(10, 4, 2u32);
        m.insert(20, 4, 3u32);
        m.remove(2, 20);
        assert_eq!(m.get(1), Some(1));
        assert_eq!(m.get(2), None);
        assert_eq!(m.get(21), None);
        assert_eq!(m.get(22), Some(3));
    }

    #[test]
    fn overlapping_clips_to_window() {
        let mut m = RangeMap::new();
        m.insert(0, 10, Linear(100));
        m.insert(20, 10, Linear(200));
        let got = m.overlapping(5, 18);
        assert_eq!(
            got,
            vec![
                Extent {
                    start: 5,
                    len: 5,
                    value: Linear(105)
                },
                Extent {
                    start: 20,
                    len: 3,
                    value: Linear(200)
                },
            ]
        );
    }

    #[test]
    fn next_mapped_seek_data() {
        let mut m = RangeMap::new();
        m.insert(10, 5, 1u32);
        assert_eq!(
            m.next_mapped(0),
            Some(Extent {
                start: 10,
                len: 5,
                value: 1
            })
        );
        assert_eq!(
            m.next_mapped(12),
            Some(Extent {
                start: 12,
                len: 3,
                value: 1
            })
        );
        assert_eq!(m.next_mapped(15), None);
    }

    #[test]
    fn end_tracks_last_extent() {
        let mut m = RangeMap::new();
        assert_eq!(m.end(), 0);
        m.insert(10, 5, 1u32);
        assert_eq!(m.end(), 15);
        m.insert(100, 1, 1u32);
        assert_eq!(m.end(), 101);
    }

    #[test]
    fn zero_length_ops_are_noops() {
        let mut m = RangeMap::new();
        m.insert(5, 0, 1u32);
        assert!(m.is_empty());
        m.insert(5, 3, 1u32);
        m.remove(5, 0);
        assert_eq!(m.covered(), 3);
        assert!(m.overlapping(0, 0).is_empty());
    }
}
