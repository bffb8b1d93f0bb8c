//! Read-side types: queries, rows, aggregation.

/// A query over one table: a measure name, optional dimension equality
/// filters, a time range, and an optional row limit.
///
/// # Example
///
/// ```
/// use spotlake_timestream::Query;
///
/// let q = Query::measure("sps")
///     .filter("region", "us-east-1")
///     .between(0, 86_400);
/// assert_eq!(q.measure_name(), "sps");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    measure: String,
    filters: Vec<(String, String)>,
    from: u64,
    to: u64,
    limit: Option<usize>,
}

impl Query {
    /// Creates a query for all series of `measure`, over all time.
    pub fn measure(measure: impl Into<String>) -> Self {
        Query {
            measure: measure.into(),
            filters: Vec::new(),
            from: 0,
            to: u64::MAX,
            limit: None,
        }
    }

    /// Restricts to series whose dimension `key` equals `value`.
    pub fn filter(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.filters.push((key.into(), value.into()));
        self
    }

    /// Restricts to points with `from <= time <= to`.
    pub fn between(mut self, from: u64, to: u64) -> Self {
        self.from = from;
        self.to = to;
        self
    }

    /// Caps a raw row query at the first `n` rows in (time, dimensions)
    /// order; the scan stops there.
    /// Only [`Table::query`](crate::Table::query) honours the limit: the
    /// per-series operations (`latest`, `value_at`) and windowed
    /// aggregation ignore it.
    pub fn limit(mut self, n: usize) -> Self {
        self.limit = Some(n);
        self
    }

    /// The measure this query targets.
    pub fn measure_name(&self) -> &str {
        &self.measure
    }

    /// The dimension filters.
    pub fn filters(&self) -> &[(String, String)] {
        &self.filters
    }

    /// The inclusive time range.
    pub fn time_range(&self) -> (u64, u64) {
        (self.from, self.to)
    }

    /// The row limit, if any.
    pub fn row_limit(&self) -> Option<usize> {
        self.limit
    }

    /// Whether a series with these dimensions matches the filters.
    pub(crate) fn matches(&self, dimensions: &[(String, String)]) -> bool {
        self.filters
            .iter()
            .all(|(fk, fv)| dimensions.iter().any(|(k, v)| k == fk && v == fv))
    }
}

/// One query result row.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Timestamp of the point.
    pub time: u64,
    /// The point's value.
    pub value: f64,
    /// Dimensions of the series the point came from.
    pub dimensions: Vec<(String, String)>,
}

/// Aggregation functions for windowed queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Aggregate {
    /// Arithmetic mean of the window's points.
    Mean,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Number of points.
    Count,
    /// Sum.
    Sum,
    /// The chronologically last value.
    Last,
}

impl Aggregate {
    /// Applies the aggregate to `(time, value)` points. Returns `None` for
    /// an empty window.
    pub fn apply(self, points: &[(u64, f64)]) -> Option<f64> {
        if points.is_empty() {
            return None;
        }
        Some(match self {
            Aggregate::Mean => points.iter().map(|&(_, v)| v).sum::<f64>() / points.len() as f64,
            Aggregate::Min => points.iter().map(|&(_, v)| v).fold(f64::INFINITY, f64::min),
            Aggregate::Max => points
                .iter()
                .map(|&(_, v)| v)
                .fold(f64::NEG_INFINITY, f64::max),
            Aggregate::Count => points.len() as f64,
            Aggregate::Sum => points.iter().map(|&(_, v)| v).sum(),
            Aggregate::Last => points.iter().max_by_key(|&&(t, _)| t).expect("nonempty").1,
        })
    }
}

/// One window's running fold: everything [`Aggregate::apply`] needs,
/// accumulated point by point so a windowed query never holds the
/// window's points. Pushing points in the order `apply` would see them
/// gives bit-identical results: the sum starts from the same seed as
/// `Iterator::sum::<f64>`, min and max fold the same way, and `last`
/// keeps the later-pushed point on equal times, as `max_by_key` does.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WindowFold {
    count: usize,
    sum: f64,
    min: f64,
    max: f64,
    last: (u64, f64),
}

impl Default for WindowFold {
    fn default() -> Self {
        WindowFold {
            count: 0,
            sum: std::iter::empty::<f64>().sum(),
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            last: (0, f64::NAN),
        }
    }
}

impl WindowFold {
    /// Folds in one point.
    pub(crate) fn push(&mut self, time: u64, value: f64) {
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        if self.count == 1 || time >= self.last.0 {
            self.last = (time, value);
        }
    }

    /// Number of points folded in.
    pub(crate) fn count(&self) -> usize {
        self.count
    }

    /// The aggregate over the points pushed so far; `None` when empty.
    pub(crate) fn finish(&self, agg: Aggregate) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        Some(match agg {
            Aggregate::Mean => self.sum / self.count as f64,
            Aggregate::Min => self.min,
            Aggregate::Max => self.max,
            Aggregate::Count => self.count as f64,
            Aggregate::Sum => self.sum,
            Aggregate::Last => self.last.1,
        })
    }
}

/// One row of a windowed aggregation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowRow {
    /// Start of the tumbling window.
    pub window_start: u64,
    /// Aggregated value over the window.
    pub value: f64,
    /// Number of points that contributed.
    pub count: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_requires_all_filters() {
        let q = Query::measure("m").filter("a", "1").filter("b", "2");
        let dims = vec![
            ("a".to_string(), "1".to_string()),
            ("b".to_string(), "2".to_string()),
            ("c".to_string(), "3".to_string()),
        ];
        assert!(q.matches(&dims));
        let q2 = Query::measure("m").filter("a", "9");
        assert!(!q2.matches(&dims));
        assert!(Query::measure("m").matches(&dims), "no filters matches all");
    }

    #[test]
    fn aggregates() {
        let pts = vec![(0u64, 1.0), (10, 3.0), (5, 2.0)];
        assert_eq!(Aggregate::Mean.apply(&pts), Some(2.0));
        assert_eq!(Aggregate::Min.apply(&pts), Some(1.0));
        assert_eq!(Aggregate::Max.apply(&pts), Some(3.0));
        assert_eq!(Aggregate::Count.apply(&pts), Some(3.0));
        assert_eq!(Aggregate::Sum.apply(&pts), Some(6.0));
        assert_eq!(
            Aggregate::Last.apply(&pts),
            Some(3.0),
            "last by time, not by position"
        );
        assert_eq!(Aggregate::Mean.apply(&[]), None);
    }

    fn fold(points: &[(u64, f64)]) -> WindowFold {
        let mut f = WindowFold::default();
        for &(t, v) in points {
            f.push(t, v);
        }
        f
    }

    const ALL: [Aggregate; 6] = [
        Aggregate::Mean,
        Aggregate::Min,
        Aggregate::Max,
        Aggregate::Count,
        Aggregate::Sum,
        Aggregate::Last,
    ];

    #[test]
    fn fold_matches_apply_on_edge_values() {
        let cases: [&[(u64, f64)]; 6] = [
            &[],
            &[(3, -0.0)],
            &[(3, -0.0), (1, -0.0)],
            &[(5, 1.0), (5, 2.0), (4, 9.0)],
            &[(0, f64::NAN), (1, 1.0)],
            &[(2, 1e308), (1, 1e308), (0, -1e308)],
        ];
        for pts in cases {
            let f = fold(pts);
            for agg in ALL {
                assert_eq!(
                    f.finish(agg).map(f64::to_bits),
                    agg.apply(pts).map(f64::to_bits),
                    "{agg:?} over {pts:?}"
                );
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn fold_is_bit_identical_to_apply(
            pts in proptest::collection::vec(
                (
                    0u64..8,
                    proptest::prop_oneof![
                        proptest::arbitrary::any::<f64>(),
                        -4.0f64..4.0,
                        proptest::strategy::Just(-0.0),
                        proptest::strategy::Just(0.0),
                    ],
                ),
                0..40,
            )
        ) {
            let f = fold(&pts);
            for agg in ALL {
                proptest::prop_assert_eq!(
                    f.finish(agg).map(f64::to_bits),
                    agg.apply(&pts).map(f64::to_bits)
                );
            }
            proptest::prop_assert_eq!(f.count(), pts.len());
        }
    }

    #[test]
    fn default_range_is_everything() {
        let q = Query::measure("m");
        assert_eq!(q.time_range(), (0, u64::MAX));
        let q = q.between(5, 10);
        assert_eq!(q.time_range(), (5, 10));
        assert_eq!(q.row_limit(), None, "no limit unless asked");
        assert_eq!(q.limit(3).row_limit(), Some(3));
    }
}
