//! Order statistics and the named-metric list a run reports.

use crate::metrics::Better;

/// Nearest-rank percentile (`p` in `0..=1`) of an already sorted slice.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[((sorted.len() - 1) as f64 * p).round() as usize]
}

pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The quartile of `values` on the side `better` points to: the first
/// quartile when lower is better, the third when higher is.
///
/// Used across the rounds of a run for everything timed on a machine
/// shared with other tenants: interference only ever makes a round
/// slower, never faster, so the disturbed rounds all sit on one side and
/// the quartile on the other side reads the undisturbed machine as long
/// as one round in four was undisturbed. (Counts and sizes, which have
/// no such one-sided error, use the median.)
pub fn good_quartile(values: &[f64], better: Better) -> f64 {
    assert!(!values.is_empty(), "quartile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (v.len() - 1) / 4;
    match better {
        Better::Lower => v[rank],
        Better::Higher => v[v.len() - 1 - rank],
    }
}

/// One reported number: one value per run plus the in-run spread.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Smallest and largest per-round value (equal to `value` for
    /// metrics that exist once per run).
    pub min: f64,
    pub max: f64,
    /// Distance between the quartiles of the per-round values (0 for
    /// metrics that exist once per run): the in-run spread `compare`
    /// holds against the bound.
    pub iqr: f64,
    /// Samples behind the value (rounds, or latency samples per round).
    pub samples: u64,
}

impl Metric {
    /// A value with no in-run spread behind it.
    pub fn single(name: &'static str, unit: &'static str, value: f64, samples: u64) -> Metric {
        Metric { name, unit, value, min: value, max: value, iqr: 0.0, samples }
    }
}

/// The metrics of one run, in report order.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Records the median of `per_round`, keeping min/max as the spread.
    pub fn rounds(&mut self, name: &'static str, unit: &'static str, per_round: &[f64]) {
        self.push(name, unit, median(per_round), per_round);
    }

    /// Records the [`good_quartile`] of a timed metric's per-round values.
    pub fn timed(
        &mut self,
        name: &'static str,
        unit: &'static str,
        better: Better,
        per_round: &[f64],
    ) {
        self.push(name, unit, good_quartile(per_round, better), per_round);
    }

    fn push(&mut self, name: &'static str, unit: &'static str, value: f64, per_round: &[f64]) {
        let (min, max) = per_round
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| (lo.min(v), hi.max(v)));
        let iqr =
            good_quartile(per_round, Better::Higher) - good_quartile(per_round, Better::Lower);
        self.metrics.push(Metric {
            name,
            unit,
            value,
            min,
            max,
            iqr,
            samples: per_round.len() as u64,
        });
    }

    /// Records a value measured once per run.
    pub fn once(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.metrics.push(Metric::single(name, unit, value, 1));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_and_median() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 0.5), 501);
        assert_eq!(percentile(&v, 0.99), 990);
        assert_eq!(percentile(&v, 1.0), 1000);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn good_quartile_sits_on_the_better_side() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(good_quartile(&ten, Better::Lower), 3.0);
        assert_eq!(good_quartile(&ten, Better::Higher), 8.0);
        let five = [50.0, 10.0, 40.0, 20.0, 30.0];
        assert_eq!(good_quartile(&five, Better::Lower), 20.0);
        assert_eq!(good_quartile(&five, Better::Higher), 40.0);
        assert_eq!(good_quartile(&[7.0], Better::Lower), 7.0);
    }
}
