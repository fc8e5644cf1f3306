//! `BENCHMARK.json` at the repository root: the file that defines this
//! benchmark to whoever drives it. The program checks itself against
//! it, so the two cannot drift apart unnoticed.

use std::path::PathBuf;

use crate::json::Json;
use crate::run::Reading;
use crate::Res;

pub fn path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json")
}

pub fn load() -> Res<Json> {
    Ok(Json::load(&path())?)
}

/// Fails unless a pass measured exactly the metrics the file lists for
/// it — `end_to_end` untraced, `per_layer` traced — under the same
/// units.
pub fn check(trace: bool, readings: &[Reading]) -> Res<()> {
    let list = if trace { "per_layer" } else { "end_to_end" };
    let file = load()?;
    let listed = file.get(list).and_then(Json::as_arr).unwrap_or(&[]);
    let mut listed: Vec<(&str, &str)> = listed
        .iter()
        .filter_map(|m| Some((m.get("name")?.as_str()?, m.get("unit")?.as_str()?)))
        .collect();
    let mut measured: Vec<(&str, &str)> = readings.iter().map(|r| (r.name, r.unit)).collect();
    listed.sort_unstable();
    measured.sort_unstable();
    if listed == measured {
        return Ok(());
    }
    let only = |a: &[(&str, &str)], b: &[(&str, &str)]| {
        let missing = a.iter().filter(|m| !b.contains(m));
        missing
            .map(|(n, u)| format!("{n} [{u}]"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    Err(format!(
        "BENCHMARK.json {list} and this pass disagree — listed only: {}; measured only: {}",
        only(&listed, &measured),
        only(&measured, &listed)
    )
    .into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;

    #[test]
    fn benchmark_json_names_this_programs_workloads_and_command() {
        let file = load().unwrap();
        let workloads: Vec<(&str, &str)> = file
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| {
                let field = |k| w.get(k).and_then(Json::as_str).unwrap();
                (field("name"), field("why"))
            })
            .collect();
        let own: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
        assert_eq!(workloads, own);
        let strings = |key| -> Vec<&str> {
            let list = file.get(key).and_then(Json::as_arr).unwrap();
            list.iter().map(|s| s.as_str().unwrap()).collect()
        };
        assert_eq!(strings("paths"), ["benchmark"]);
        let command = strings("command");
        assert!(command.contains(&"benchmark/Cargo.toml") && command.ends_with(&["--", "run"]));
        // One metric must be the set-up time, with the widest bound.
        let e2e = file.get("end_to_end").and_then(Json::as_arr).unwrap();
        let bound = |m: &Json| m.get("bound").and_then(Json::as_f64).unwrap();
        let setup = e2e
            .iter()
            .find(|m| m.get("name").and_then(Json::as_str) == Some("setup_s"))
            .unwrap();
        assert!(e2e
            .iter()
            .all(|m| bound(m) <= bound(setup) && bound(setup) <= 0.25));
    }
}
