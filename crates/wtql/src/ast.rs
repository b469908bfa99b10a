//! WTQL abstract syntax.

use wt_store::ParamValue;

/// Comparison operators in WHERE / SUBJECT TO clauses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Comparison {
    /// `<=`
    Le,
    /// `>=`
    Ge,
    /// `<`
    Lt,
    /// `>`
    Gt,
    /// `=`
    Eq,
}

impl Comparison {
    /// Evaluates `lhs OP rhs` for numeric operands.
    pub fn eval(&self, lhs: f64, rhs: f64) -> bool {
        match self {
            Comparison::Le => lhs <= rhs,
            Comparison::Ge => lhs >= rhs,
            Comparison::Lt => lhs < rhs,
            Comparison::Gt => lhs > rhs,
            Comparison::Eq => (lhs - rhs).abs() < 1e-12,
        }
    }

    /// The source spelling.
    pub fn as_str(&self) -> &'static str {
        match self {
            Comparison::Le => "<=",
            Comparison::Ge => ">=",
            Comparison::Lt => "<",
            Comparison::Gt => ">",
            Comparison::Eq => "=",
        }
    }
}

/// One sweep axis: `replication IN [3, 5]`.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepAxis {
    /// Axis (scenario parameter) name.
    pub param: String,
    /// Values to sweep over.
    pub values: Vec<ParamValue>,
}

/// A WHERE filter on a configuration parameter: `nodes = 30`.
#[derive(Debug, Clone, PartialEq)]
pub struct Filter {
    /// Parameter name.
    pub param: String,
    /// Comparison.
    pub cmp: Comparison,
    /// Right-hand value.
    pub value: ParamValue,
}

/// A SUBJECT TO constraint on an output metric:
/// `availability >= 0.9999`.
#[derive(Debug, Clone, PartialEq)]
pub struct Constraint {
    /// Metric name.
    pub metric: String,
    /// Comparison.
    pub cmp: Comparison,
    /// Bound.
    pub bound: f64,
}

impl Constraint {
    /// True if `value` satisfies this constraint.
    pub fn satisfied(&self, value: f64) -> bool {
        self.cmp.eval(value, self.bound)
    }
}

/// One argument of an INJECT call: a literal, or a reference to a sweep
/// axis whose value is substituted per grid point (`racks = blast` sweeps
/// the blast radius).
#[derive(Debug, Clone, PartialEq)]
pub enum InjectArg {
    /// A literal value.
    Value(ParamValue),
    /// The name of a sweep axis to substitute at evaluation time.
    Axis(String),
}

/// One fault injection: `INJECT power_loss(at = 3600, racks = 2, ...)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Injection {
    /// Injection kind (`power_loss`, `tor_death`, `gray_storm`, ...).
    pub kind: String,
    /// Named arguments in source order.
    pub args: Vec<(String, InjectArg)>,
}

impl Injection {
    /// Names of sweep axes this injection's arguments reference.
    pub fn axis_refs(&self) -> impl Iterator<Item = &str> {
        self.args.iter().filter_map(|(_, arg)| match arg {
            InjectArg::Axis(name) => Some(name.as_str()),
            InjectArg::Value(_) => None,
        })
    }
}

/// Optimization objective: `MINIMIZE tco_usd_per_year`.
#[derive(Debug, Clone, PartialEq)]
pub struct Objective {
    /// Metric to optimize.
    pub metric: String,
    /// True = minimize, false = maximize.
    pub minimize: bool,
}

/// A full WTQL query.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// Metrics to report (EXPLORE clause).
    pub explore: Vec<String>,
    /// Sweep axes (cartesian product).
    pub sweeps: Vec<SweepAxis>,
    /// Fault injections (INJECT clause).
    pub injects: Vec<Injection>,
    /// Configuration filters.
    pub filters: Vec<Filter>,
    /// Output constraints.
    pub constraints: Vec<Constraint>,
    /// Optional objective.
    pub objective: Option<Objective>,
    /// Guided execution requested (`GUIDED` clause): enable analytic
    /// screening, surrogate ranking, sketch-driven aborts and replication
    /// early-stop. Individual stages can still be toggled via OPTIONS.
    pub guided: bool,
    /// Execution options as written (`OPTIONS replications = 3`); the
    /// parser accepts any key, `run_query` rejects one it does not know.
    pub options: Vec<(String, ParamValue)>,
}

/// One statement in a WTQL script: a full query, or an introspection
/// command. `STATS` reports on the result store (record count,
/// per-experiment counts, sketch quantiles) and is always safe — it runs
/// no simulation and is a no-op on an empty store.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// A simulation query.
    Query(Query),
    /// Result-store introspection (`STATS`; `.stats` interactively).
    Stats,
}

impl Query {
    /// Total grid size before filtering.
    pub fn grid_size(&self) -> usize {
        self.sweeps.iter().map(|s| s.values.len()).product()
    }

    /// A named numeric option, if present.
    pub fn option_num(&self, name: &str) -> Option<f64> {
        self.options
            .iter()
            .find(|(k, _)| k == name)
            .and_then(|(_, v)| v.as_num())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparison_eval() {
        assert!(Comparison::Le.eval(1.0, 2.0));
        assert!(Comparison::Ge.eval(2.0, 2.0));
        assert!(Comparison::Lt.eval(1.0, 2.0));
        assert!(!Comparison::Gt.eval(1.0, 2.0));
        assert!(Comparison::Eq.eval(3.0, 3.0));
        assert!(!Comparison::Eq.eval(3.0, 3.1));
    }

    #[test]
    fn constraint_satisfaction() {
        let c = Constraint {
            metric: "availability".into(),
            cmp: Comparison::Ge,
            bound: 0.999,
        };
        assert!(c.satisfied(0.9999));
        assert!(!c.satisfied(0.99));
    }

    #[test]
    fn grid_size() {
        let q = Query {
            explore: vec![],
            sweeps: vec![
                SweepAxis {
                    param: "a".into(),
                    values: vec![ParamValue::Num(1.0), ParamValue::Num(2.0)],
                },
                SweepAxis {
                    param: "b".into(),
                    values: vec![
                        ParamValue::Str("x".into()),
                        ParamValue::Str("y".into()),
                        ParamValue::Str("z".into()),
                    ],
                },
            ],
            injects: vec![],
            filters: vec![],
            constraints: vec![],
            objective: None,
            guided: false,
            options: vec![],
        };
        assert_eq!(q.grid_size(), 6);
        assert_eq!(q.option_num("trials"), None);
    }
}
