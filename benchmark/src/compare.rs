//! `benchmark compare a.json b.json`: two result files of `benchmark all`
//! against the bounds, one row per (end-to-end metric, workload).
//!
//! Run on two results of the same code it is the A/A check; run on a parent
//! and a change it is the regression check. `b` is judged against `a`.

use std::path::Path;
use std::process::ExitCode;

use crate::json::{self, Value};
use crate::metrics::{Better, EndToEnd, END_TO_END, WORKLOADS};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// `b` is worse than `a` by more than the bound.
    Worse,
    /// One side's own cycles disagree by more than the bound: the data
    /// cannot show a difference of that size either way.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side of a comparison: a metric's value and its spread over cycles.
#[derive(Debug, Clone, Copy)]
pub struct Side {
    pub value: f64,
    pub cycle_spread_pct: f64,
}

/// By how much `b` is worse than `a`, as a share of `a` (negative = better).
pub fn worsening(metric: &EndToEnd, a: f64, b: f64) -> f64 {
    let delta = match metric.better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    };
    if delta == 0.0 {
        0.0
    } else {
        delta / a.abs()
    }
}

pub fn judge(metric: &EndToEnd, a: Side, b: Side) -> Verdict {
    let bound_pct = metric.bound * 100.0;
    if a.cycle_spread_pct > bound_pct || b.cycle_spread_pct > bound_pct {
        Verdict::Unresolved
    } else if worsening(metric, a.value, b.value) > metric.bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn side(doc: &Value, workload: &str, metric: &str) -> Option<Side> {
    let m = doc
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?;
    Some(Side {
        value: m.get("value")?.as_f64()?,
        cycle_spread_pct: m.get("cycle_spread_pct")?.as_f64()?,
    })
}

pub fn run(a_path: &Path, b_path: &Path) -> Result<ExitCode, String> {
    let (a_doc, b_doc) = (load(a_path)?, load(b_path)?);
    println!(
        "{:<14} {:<30} {:>16} {:>16} {:>10} {:>9}  verdict",
        "workload", "metric", "a", "b", "worse by", "bound"
    );
    let mut worse = 0;
    for w in WORKLOADS {
        for m in END_TO_END {
            let (Some(a), Some(b)) = (side(&a_doc, w.name, m.name), side(&b_doc, w.name, m.name))
            else {
                return Err(format!(
                    "{}/{} is missing from a result file",
                    w.name, m.name
                ));
            };
            let verdict = judge(m, a, b);
            worse += usize::from(verdict == Verdict::Worse);
            println!(
                "{:<14} {:<30} {:>16.6} {:>16.6} {:>9.3}% {:>9}  {}",
                w.name,
                m.name,
                a.value,
                b.value,
                worsening(m, a.value, b.value) * 100.0,
                // The simulated metrics' bound only absorbs float printing.
                if m.bound < 1e-6 {
                    "exact".to_string()
                } else {
                    format!("{:.3}%", m.bound * 100.0)
                },
                verdict.name()
            );
        }
        let failed = |doc: &Value| {
            doc.get("workloads")
                .and_then(|ws| ws.get(w.name))
                .and_then(|x| x.get("failed"))
                .and_then(Value::as_f64)
        };
        let (fa, fb) = (failed(&a_doc).unwrap_or(0.0), failed(&b_doc).unwrap_or(0.0));
        if fb > fa {
            worse += 1;
        }
        println!(
            "{:<14} {:<30} {fa:>16} {fb:>16} {:>10} {:>9}  {}",
            w.name,
            "failed ops",
            "",
            "0",
            if fb > fa { "worse" } else { "ok" }
        );
    }
    Ok(if worse > 0 {
        println!("{worse} worse");
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str) -> &'static EndToEnd {
        END_TO_END.iter().find(|m| m.name == name).unwrap()
    }

    fn steady(value: f64) -> Side {
        Side {
            value,
            cycle_spread_pct: 1.0,
        }
    }

    #[test]
    fn verdicts_follow_direction_and_bound() {
        let pu = metric("round_pu"); // lower is better
        let just_inside = 36.0 * (1.0 + pu.bound * 0.9);
        let just_outside = 36.0 * (1.0 + pu.bound * 1.1);
        assert_eq!(judge(pu, steady(36.0), steady(just_inside)), Verdict::Ok);
        assert_eq!(
            judge(pu, steady(36.0), steady(just_outside)),
            Verdict::Worse
        );
        assert_eq!(judge(pu, steady(36.0), steady(20.0)), Verdict::Ok);
        assert!((worsening(pu, 36.0, 39.6) - 0.1).abs() < 1e-12);

        let speedup = metric("modelled_speedup_geomean"); // higher is better, exact
        let exact = |value| Side {
            value,
            cycle_spread_pct: 0.0,
        };
        assert_eq!(judge(speedup, exact(1.25), exact(1.25)), Verdict::Ok);
        assert_eq!(judge(speedup, exact(1.25), exact(1.2499)), Verdict::Worse);
        assert_eq!(judge(speedup, exact(1.25), exact(1.3)), Verdict::Ok);
    }

    #[test]
    fn a_noisy_side_is_unresolved_not_worse() {
        let pu = metric("round_pu");
        let noisy = Side {
            value: 72.0,
            cycle_spread_pct: pu.bound * 100.0 + 1.0,
        };
        assert_eq!(judge(pu, steady(36.0), noisy), Verdict::Unresolved);
        assert_eq!(judge(pu, noisy, steady(36.0)), Verdict::Unresolved);
    }
}
