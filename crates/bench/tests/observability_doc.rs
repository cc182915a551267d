//! OBSERVABILITY.md documents every counter: for each counter family, the
//! backticked names in the first column of its table equal the family's
//! `FIELDS` (a row such as `` `a` / `b` `` documents both names).

use std::collections::BTreeSet;

const DOC: &str = include_str!("../../../OBSERVABILITY.md");

/// The names documented by table `index` (0-based) of the `### ` section
/// whose heading starts with `heading`.
fn documented(heading: &str, index: usize) -> BTreeSet<&'static str> {
    let section = DOC
        .split("\n### ")
        .find(|s| s.starts_with(heading))
        .unwrap_or_else(|| panic!("OBSERVABILITY.md has no section {heading}"));
    let mut tables: Vec<Vec<&str>> = Vec::new();
    let mut in_table = false;
    for line in section.lines() {
        let row = line.starts_with('|');
        if row && !in_table {
            tables.push(Vec::new());
        }
        if row {
            tables.last_mut().expect("pushed").push(line);
        }
        in_table = row;
    }
    let table = tables
        .get(index)
        .unwrap_or_else(|| panic!("section {heading} has no table #{index}"));
    table
        .iter()
        .skip(2) // header and separator rows
        .filter_map(|row| row.split('|').nth(1))
        .flat_map(|cell| cell.split('`').skip(1).step_by(2))
        .map(|name| name.split('[').next().unwrap_or(name))
        .collect()
}

fn check(heading: &str, index: usize, fields: &[(&str, &str)]) {
    let documented = documented(heading, index);
    let declared: BTreeSet<&str> = fields.iter().map(|f| f.0).collect();
    let missing: Vec<_> = declared.difference(&documented).collect();
    let unknown: Vec<_> = documented.difference(&declared).collect();
    assert!(
        missing.is_empty() && unknown.is_empty(),
        "OBSERVABILITY.md §{heading} table #{index}: \
         undocumented {missing:?}, not a counter {unknown:?}"
    );
}

#[test]
fn every_mux_counter_is_documented() {
    check("1.1", 0, mux::stats::MuxStatsSnapshot::FIELDS);
}

#[test]
fn every_device_counter_is_documented() {
    check("1.4", 0, simdev::StatsSnapshot::FIELDS);
}

#[test]
fn every_cluster_counter_is_documented() {
    check("1.5", 0, cluster::ClusterStatsSnapshot::FIELDS);
}

#[test]
fn every_link_counter_is_documented() {
    check("1.5", 1, netfs::LinkStats::FIELDS);
}
