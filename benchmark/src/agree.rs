//! `ptbench agree A.json B.json`: do two result sets of `ptbench run
//! --out` tell the same story, by the bounds in `BENCHMARK.json`?

use std::path::Path;

use crate::json::Json;
use crate::Res;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is within the bound of A.
    Agree,
    /// B differs from A by more than the bound.
    Disagree,
    /// The repetitions of A or of B spread wider than the bound (or a
    /// side has no reading), so the pair can show neither.
    Unresolved,
}

/// One side's reading of a metric: its median and quartile distance.
#[derive(Debug, Clone, Copy)]
pub struct Side {
    pub value: f64,
    pub iqr: f64,
}

/// Judges one pairing. `bound` is a share of A's median.
pub fn judge(a: Option<Side>, b: Option<Side>, bound: f64) -> Verdict {
    let (Some(a), Some(b)) = (a, b) else {
        return Verdict::Unresolved;
    };
    let spread = |s: Side| s.iqr / s.value.abs();
    if spread(a) > bound || spread(b) > bound {
        Verdict::Unresolved
    } else if (b.value - a.value).abs() <= bound * a.value.abs() {
        Verdict::Agree
    } else {
        Verdict::Disagree
    }
}

fn side(metric: Option<&Json>) -> Option<Side> {
    let m = metric?;
    Some(Side {
        value: m.get("value")?.as_f64()?,
        iqr: m.get("iqr")?.as_f64()?,
    })
}

/// Prints every workload × end-to-end metric pairing of the two sets;
/// `Ok(false)` when any pairing disagrees.
pub fn agree(args: &[String]) -> Res<bool> {
    let [a_path, b_path] = args else {
        return Err("usage: ptbench agree A.json B.json".into());
    };
    let (a, b) = (
        Json::load(Path::new(a_path))?,
        Json::load(Path::new(b_path))?,
    );
    let bounds = crate::contract::load()?;
    let metrics = bounds
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("no end_to_end list in the bounds file")?;
    let workloads = a.get("workloads").ok_or("A has no workloads")?.entries();
    let size = |set: &Json| set.get("size").and_then(Json::as_str).map(str::to_owned);
    if size(&a) != size(&b) {
        return Err("the two sets were run at different corpus sizes".into());
    }

    let mut tally = [0usize; 3];
    println!(
        "{:<12} {:<26} {:>16} {:>16} {:<6} {:>9} {:>7} {:>7} {:>6}  verdict",
        "workload", "metric", "A", "B", "unit", "B-A of A", "iqr A", "iqr B", "bound"
    );
    for (workload, in_a) in workloads {
        let Some(in_b) = b.get("workloads").and_then(|w| w.get(workload)) else {
            continue;
        };
        for metric in metrics {
            let name = metric
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without name")?;
            let unit = metric.get("unit").and_then(Json::as_str).unwrap_or("");
            let bound = metric
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("metric without bound")?;
            let of = |set: &Json| side(set.get("metrics").and_then(|m| m.get(name)));
            let (sa, sb) = (of(in_a), of(in_b));
            let verdict = judge(sa, sb, bound);
            tally[verdict as usize] += 1;
            let show = |s: Option<Side>| s.map_or("null".into(), |s| format!("{:.4}", s.value));
            let pct = |x: Option<f64>| x.map_or("-".into(), |x| format!("{:.2}%", 100.0 * x));
            let delta = sa.zip(sb).map(|(a, b)| (b.value - a.value) / a.value.abs());
            println!(
                "{workload:<12} {name:<26} {:>16} {:>16} {unit:<6} {:>9} {:>7} {:>7} {:>5.0}%  {}",
                show(sa),
                show(sb),
                delta.map_or("-".into(), |d| format!("{:+.2}%", 100.0 * d)),
                pct(sa.map(|s| s.iqr / s.value.abs())),
                pct(sb.map(|s| s.iqr / s.value.abs())),
                100.0 * bound,
                match verdict {
                    Verdict::Agree => "agree",
                    Verdict::Disagree => "DISAGREE",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    println!(
        "{} agree, {} disagree, {} unresolved",
        tally[Verdict::Agree as usize],
        tally[Verdict::Disagree as usize],
        tally[Verdict::Unresolved as usize]
    );
    Ok(tally[Verdict::Disagree as usize] == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(value: f64, iqr: f64) -> Option<Side> {
        Some(Side { value, iqr })
    }

    #[test]
    fn verdicts_follow_the_bound() {
        // Within a tenth either way agrees, whatever the direction.
        assert_eq!(judge(s(100.0, 2.0), s(109.0, 2.0), 0.10), Verdict::Agree);
        assert_eq!(judge(s(100.0, 2.0), s(91.0, 2.0), 0.10), Verdict::Agree);
        assert_eq!(judge(s(100.0, 2.0), s(111.0, 2.0), 0.10), Verdict::Disagree);
        // Repetitions spread wider than the bound decide nothing —
        // not even when the medians coincide.
        assert_eq!(
            judge(s(100.0, 12.0), s(100.0, 1.0), 0.10),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(s(100.0, 1.0), s(150.0, 20.0), 0.10),
            Verdict::Unresolved
        );
        assert_eq!(judge(None, s(1.0, 0.0), 0.10), Verdict::Unresolved);
        // Exact counts carry no spread.
        assert_eq!(
            judge(s(2_065_072.0, 0.0), s(2_065_072.0, 0.0), 0.01),
            Verdict::Agree
        );
    }
}
