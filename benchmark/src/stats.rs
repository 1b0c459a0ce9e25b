//! Order statistics of a handful of samples.

use crate::json::Json;

/// The three cut points Python's `statistics.quantiles(values, n=4)` returns (its
/// default, exclusive method), so spreads computed here and by a driver agree.
/// Needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles of fewer than two values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let m = sorted.len();
    [1, 2, 3].map(|i| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    })
}

pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let m = sorted.len();
    if m % 2 == 1 {
        sorted[m / 2]
    } else {
        (sorted[m / 2 - 1] + sorted[m / 2]) / 2.0
    }
}

/// What is reported of a metric's samples.  With n = 9 there are too few samples to
/// claim a tail percentile, so none is: median, quartiles and the extremes.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let [q1, _, q3] = if values.len() >= 2 {
            quartiles(values)
        } else {
            [values[0]; 3]
        };
        Summary {
            n: values.len(),
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            q1,
            median: median(values),
            q3,
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }

    /// Distance between the quartiles as a share of the median.
    pub fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median
    }

    pub fn fields(&self) -> [(&'static str, Json); 6] {
        [
            ("n", Json::Num(self.n as f64)),
            ("min", Json::Num(self.min)),
            ("q1", Json::Num(self.q1)),
            ("median", Json::Num(self.median)),
            ("q3", Json::Num(self.q3)),
            ("max", Json::Num(self.max)),
        ]
    }

    pub fn from_json(json: &Json) -> Option<Summary> {
        let num = |key: &str| json.get(key)?.as_f64();
        Some(Summary {
            n: num("n")? as usize,
            min: num("min")?,
            q1: num("q1")?,
            median: num("median")?,
            q3: num("q3")?,
            max: num("max")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let s = Summary::of(&ten);
        assert_eq!((s.n, s.min, s.median, s.max), (10, 1.0, 5.5, 10.0));
        assert_eq!(Summary::from_json(&Json::obj(s.fields())), Some(s));
    }
}
