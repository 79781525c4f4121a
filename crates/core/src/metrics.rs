//! Execution metrics: the quantities cloning matches and stress testing
//! maximizes.

use micrograd_isa::InstrClass;
use micrograd_power::PowerReport;
use micrograd_sim::SimStats;
use serde::{DeError, Deserialize, Serialize, Value};
use std::collections::BTreeMap;
use std::fmt;

/// The metrics MicroGrad can target.
///
/// The first nine are the axes of the cloning radar charts in Figs. 2–4 of
/// the paper (instruction-class fractions, branch misprediction rate, cache
/// hit rates, IPC); [`MetricKind::DynamicPower`] is the stress metric of
/// Fig. 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum MetricKind {
    /// Fraction of integer instructions.
    IntegerFraction,
    /// Fraction of floating point instructions.
    FloatFraction,
    /// Fraction of load instructions.
    LoadFraction,
    /// Fraction of store instructions.
    StoreFraction,
    /// Fraction of branch instructions.
    BranchFraction,
    /// Branch misprediction rate.
    BranchMispredictRate,
    /// L1 instruction cache hit rate ("IC hit rate").
    L1iHitRate,
    /// L1 data cache hit rate ("DC hit rate").
    L1dHitRate,
    /// L2 cache hit rate.
    L2HitRate,
    /// Instructions per cycle.
    Ipc,
    /// Dynamic power in watts.
    DynamicPower,
}

impl MetricKind {
    /// Every metric kind in canonical order.
    pub const ALL: [MetricKind; 11] = [
        MetricKind::IntegerFraction,
        MetricKind::FloatFraction,
        MetricKind::LoadFraction,
        MetricKind::StoreFraction,
        MetricKind::BranchFraction,
        MetricKind::BranchMispredictRate,
        MetricKind::L1iHitRate,
        MetricKind::L1dHitRate,
        MetricKind::L2HitRate,
        MetricKind::Ipc,
        MetricKind::DynamicPower,
    ];

    /// The nine metrics the cloning radar charts report (Fig. 2 of the
    /// paper): instruction fractions, mispredictions, cache hit rates, IPC.
    pub const CLONING: [MetricKind; 9] = [
        MetricKind::IntegerFraction,
        MetricKind::LoadFraction,
        MetricKind::StoreFraction,
        MetricKind::BranchFraction,
        MetricKind::BranchMispredictRate,
        MetricKind::L1iHitRate,
        MetricKind::L1dHitRate,
        MetricKind::L2HitRate,
        MetricKind::Ipc,
    ];

    /// A short label matching the paper's figures.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            MetricKind::IntegerFraction => "Integer",
            MetricKind::FloatFraction => "Float",
            MetricKind::LoadFraction => "Load",
            MetricKind::StoreFraction => "Store",
            MetricKind::BranchFraction => "Branch",
            MetricKind::BranchMispredictRate => "Mispredictions",
            MetricKind::L1iHitRate => "IC Hit Rate",
            MetricKind::L1dHitRate => "DC Hit Rate",
            MetricKind::L2HitRate => "L2 Hit Rate",
            MetricKind::Ipc => "IPC",
            MetricKind::DynamicPower => "Dynamic Power",
        }
    }
}

impl fmt::Display for MetricKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A measured metric vector.
///
/// The values sit inline, one slot per [`MetricKind`] in declaration
/// order, with a mask of the kinds present; an absent kind's slot holds
/// 0.0, so the derived equality compares exactly the present values.  It
/// serializes as a map of the present kinds in that order:
/// `{"values":{"Ipc":1.5}}`.
#[derive(Clone, Default, PartialEq)]
pub struct Metrics {
    values: [f64; MetricKind::ALL.len()],
    present: u16,
}

impl Metrics {
    /// Creates an empty metric vector.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds the metric vector of a simulation run, optionally with a power
    /// estimate.
    #[must_use]
    pub fn from_run(stats: &SimStats, power: Option<&PowerReport>) -> Self {
        let mut m = Metrics::new();
        m.set(
            MetricKind::IntegerFraction,
            stats.class_fraction(InstrClass::Integer),
        );
        m.set(
            MetricKind::FloatFraction,
            stats.class_fraction(InstrClass::Float),
        );
        m.set(
            MetricKind::LoadFraction,
            stats.class_fraction(InstrClass::Load),
        );
        m.set(
            MetricKind::StoreFraction,
            stats.class_fraction(InstrClass::Store),
        );
        m.set(
            MetricKind::BranchFraction,
            stats.class_fraction(InstrClass::Branch),
        );
        m.set(
            MetricKind::BranchMispredictRate,
            stats.branch_mispredict_rate(),
        );
        m.set(MetricKind::L1iHitRate, stats.l1i_hit_rate());
        m.set(MetricKind::L1dHitRate, stats.l1d_hit_rate());
        m.set(MetricKind::L2HitRate, stats.l2_hit_rate());
        m.set(MetricKind::Ipc, stats.ipc());
        if let Some(p) = power {
            m.set(MetricKind::DynamicPower, p.dynamic_watts);
        }
        m
    }

    /// Sets a metric value.
    pub fn set(&mut self, kind: MetricKind, value: f64) {
        self.values[kind as usize] = value;
        self.present |= bit(kind);
    }

    /// Builder-style variant of [`set`](Self::set).
    #[must_use]
    pub fn with(mut self, kind: MetricKind, value: f64) -> Self {
        self.set(kind, value);
        self
    }

    /// The value of `kind`, if present.
    #[must_use]
    pub fn get(&self, kind: MetricKind) -> Option<f64> {
        (self.present & bit(kind) != 0).then_some(self.values[kind as usize])
    }

    /// The value of `kind`, or 0.0 if absent.
    #[must_use]
    pub fn value_or_zero(&self, kind: MetricKind) -> f64 {
        self.get(kind).unwrap_or(0.0)
    }

    /// Iterates over `(kind, value)` pairs, in [`MetricKind::ALL`] order.
    pub fn iter(&self) -> impl Iterator<Item = (MetricKind, f64)> + '_ {
        MetricKind::ALL
            .into_iter()
            .filter_map(|kind| self.get(kind).map(|value| (kind, value)))
    }

    /// Number of metrics present.
    #[must_use]
    pub fn len(&self) -> usize {
        self.present.count_ones() as usize
    }

    /// Returns `true` if no metric is present.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.present == 0
    }

    /// The ratio `self / target` for `kind`, the quantity plotted on the
    /// radial axis of the paper's radar charts (1.0 = perfect match).
    ///
    /// When the target value is (near) zero the ratio is defined as 1.0 if
    /// the measured value is also (near) zero and as `1 + |measured|`
    /// otherwise, so tiny denominators do not explode the chart.
    #[must_use]
    pub fn ratio_to(&self, target: &Metrics, kind: MetricKind) -> f64 {
        let measured = self.value_or_zero(kind);
        let expected = target.value_or_zero(kind);
        const EPS: f64 = 1e-6;
        if expected.abs() < EPS {
            if measured.abs() < EPS {
                1.0
            } else {
                1.0 + measured.abs()
            }
        } else {
            measured / expected
        }
    }

    /// Per-metric accuracy relative to `target`: `1 - |ratio - 1|`, clamped
    /// to `[0, 1]`.
    #[must_use]
    pub fn accuracy_to(&self, target: &Metrics, kind: MetricKind) -> f64 {
        (1.0 - (self.ratio_to(target, kind) - 1.0).abs()).clamp(0.0, 1.0)
    }

    /// Mean accuracy over `kinds` relative to `target` (1.0 if `kinds` is
    /// empty).
    #[must_use]
    pub fn mean_accuracy(&self, target: &Metrics, kinds: &[MetricKind]) -> f64 {
        if kinds.is_empty() {
            return 1.0;
        }
        kinds
            .iter()
            .map(|k| self.accuracy_to(target, *k))
            .sum::<f64>()
            / kinds.len() as f64
    }
}

impl fmt::Debug for Metrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// `kind`'s bit in [`Metrics`]' presence mask.
fn bit(kind: MetricKind) -> u16 {
    1 << kind as u16
}

impl Serialize for Metrics {
    fn serialize_value(&self) -> Value {
        // A kind's `Debug` is its variant name, which is what its derived
        // serialization writes.
        let values = self
            .iter()
            .map(|(kind, value)| (format!("{kind:?}"), value.serialize_value()))
            .collect();
        Value::Map(vec![("values".to_owned(), Value::Map(values))])
    }
}

impl Deserialize for Metrics {
    fn deserialize_value(v: &Value) -> Result<Self, DeError> {
        let entries = v
            .as_map()
            .ok_or_else(|| DeError::unexpected("object for Metrics", v))?;
        let values = match serde::map_get(entries, "values") {
            Some(values) => BTreeMap::<MetricKind, f64>::deserialize_value(values)
                .map_err(|e| e.context("Metrics.values"))?,
            None => BTreeMap::deserialize_value(&Value::Null)
                .map_err(|e| e.context("Metrics.values (missing)"))?,
        };
        Ok(values.into_iter().collect())
    }
}

impl FromIterator<(MetricKind, f64)> for Metrics {
    fn from_iter<T: IntoIterator<Item = (MetricKind, f64)>>(iter: T) -> Self {
        let mut m = Metrics::new();
        for (k, v) in iter {
            m.set(k, v);
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics(pairs: &[(MetricKind, f64)]) -> Metrics {
        pairs.iter().copied().collect()
    }

    #[test]
    fn ratio_and_accuracy() {
        let target = metrics(&[(MetricKind::Ipc, 2.0), (MetricKind::L1dHitRate, 0.9)]);
        let measured = metrics(&[(MetricKind::Ipc, 1.8), (MetricKind::L1dHitRate, 0.9)]);
        assert!((measured.ratio_to(&target, MetricKind::Ipc) - 0.9).abs() < 1e-12);
        assert!((measured.accuracy_to(&target, MetricKind::Ipc) - 0.9).abs() < 1e-12);
        assert!((measured.accuracy_to(&target, MetricKind::L1dHitRate) - 1.0).abs() < 1e-12);
        let mean = measured.mean_accuracy(&target, &[MetricKind::Ipc, MetricKind::L1dHitRate]);
        assert!((mean - 0.95).abs() < 1e-12);
    }

    #[test]
    fn zero_target_does_not_explode() {
        let target = metrics(&[(MetricKind::FloatFraction, 0.0)]);
        let same = metrics(&[(MetricKind::FloatFraction, 0.0)]);
        let off = metrics(&[(MetricKind::FloatFraction, 0.2)]);
        assert_eq!(same.ratio_to(&target, MetricKind::FloatFraction), 1.0);
        assert!(off.ratio_to(&target, MetricKind::FloatFraction) > 1.0);
        assert!(off.accuracy_to(&target, MetricKind::FloatFraction) < 1.0);
    }

    #[test]
    fn accuracy_is_clamped() {
        let target = metrics(&[(MetricKind::Ipc, 1.0)]);
        let wild = metrics(&[(MetricKind::Ipc, 5.0)]);
        assert_eq!(wild.accuracy_to(&target, MetricKind::Ipc), 0.0);
    }

    #[test]
    fn mean_accuracy_of_empty_kind_list_is_one() {
        let a = Metrics::new();
        let b = Metrics::new();
        assert_eq!(a.mean_accuracy(&b, &[]), 1.0);
        assert!(a.is_empty());
        assert_eq!(a.len(), 0);
    }

    #[test]
    fn from_run_extracts_all_cloning_metrics() {
        let mut stats = SimStats {
            instructions: 100,
            cycles: 50,
            ..SimStats::default()
        };
        stats.activity.int_alu_ops = 60;
        stats.activity.loads = 40;
        let m = Metrics::from_run(&stats, None);
        for kind in MetricKind::CLONING {
            assert!(m.get(kind).is_some(), "{kind} missing");
        }
        assert_eq!(m.get(MetricKind::DynamicPower), None);
        assert!((m.value_or_zero(MetricKind::Ipc) - 2.0).abs() < 1e-12);
        assert!((m.value_or_zero(MetricKind::IntegerFraction) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn labels_match_paper_axes() {
        assert_eq!(MetricKind::BranchMispredictRate.label(), "Mispredictions");
        assert_eq!(MetricKind::L1dHitRate.to_string(), "DC Hit Rate");
        assert_eq!(MetricKind::CLONING.len(), 9);
        assert_eq!(MetricKind::ALL.len(), 11);
    }

    #[test]
    fn serializes_as_the_map_of_present_kinds() {
        let m = metrics(&[
            (MetricKind::DynamicPower, 2.0),
            (MetricKind::IntegerFraction, 0.25),
            (MetricKind::Ipc, 1.5),
        ]);
        let json = r#"{"values":{"IntegerFraction":0.25,"Ipc":1.5,"DynamicPower":2.0}}"#;
        assert_eq!(serde_json::to_string(&m).unwrap(), json);
        assert_eq!(serde_json::from_str::<Metrics>(json).unwrap(), m);
        assert_eq!(
            serde_json::to_string(&Metrics::new()).unwrap(),
            r#"{"values":{}}"#
        );
        assert_eq!(
            serde_json::to_string_pretty(&Metrics::new().with(MetricKind::L2HitRate, 0.5)).unwrap(),
            "{\n  \"values\": {\n    \"L2HitRate\": 0.5\n  }\n}"
        );
        // Slots follow `MetricKind::ALL`, which is sorted, so every kind
        // serializes in the order a map keyed by kind keeps.
        assert!(MetricKind::ALL.windows(2).all(|w| w[0] < w[1]));
        assert!(MetricKind::ALL
            .iter()
            .enumerate()
            .all(|(slot, &kind)| kind as usize == slot));
        // A later value of a kind wins, as a map insert did.
        let twice = r#"{"values":{"Ipc":1.0,"Ipc":3.0}}"#;
        assert_eq!(
            serde_json::from_str::<Metrics>(twice).unwrap(),
            Metrics::new().with(MetricKind::Ipc, 3.0)
        );
        let err = serde_json::from_str::<Metrics>(r#"{"values":{"Watts":1.0}}"#).unwrap_err();
        assert_eq!(
            err.to_string(),
            "Metrics.values: cannot interpret map key `Watts`"
        );
        let err = serde_json::from_str::<Metrics>("{}").unwrap_err();
        assert_eq!(
            err.to_string(),
            "Metrics.values (missing): expected map, got null"
        );
    }

    #[test]
    fn absent_kinds_are_neither_read_nor_compared() {
        let mut m = Metrics::new();
        assert_eq!(m.get(MetricKind::Ipc), None);
        m.set(MetricKind::Ipc, 0.0);
        assert_eq!(m.get(MetricKind::Ipc), Some(0.0));
        assert_ne!(m, Metrics::new(), "a present 0.0 is not an absent kind");
        m.set(MetricKind::Ipc, 2.0);
        assert_eq!(m.len(), 1);
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![(MetricKind::Ipc, 2.0)]);
        assert_eq!(format!("{m:?}"), "{Ipc: 2.0}");
    }

    #[test]
    fn serde_round_trip() {
        let m = metrics(&[(MetricKind::Ipc, 1.5), (MetricKind::DynamicPower, 2.0)]);
        let json = serde_json::to_string(&m).unwrap();
        let back: Metrics = serde_json::from_str(&json).unwrap();
        assert_eq!(back, m);
    }
}
