//! Binding sweep axes onto the scenario configuration surface.
//!
//! Each axis name maps to one knob of `windtunnel::Scenario`. Categorical
//! hardware axes resolve through the part catalog, so a query can say
//! `nic IN ["1g", "10g"]` instead of spelling out specs.

use crate::ast::{InjectArg, Injection};
use crate::error::WtqlError;
use windtunnel::cluster::{FaultKind, InjectionRule, Scenario};
use windtunnel::hw::catalog;
use windtunnel::hw::limpware::LimpTarget;
use windtunnel::hw::LimpwareSpec;
use windtunnel::sw::{Placement, RedundancyScheme, StripeSpec};
use wt_dist::Dist;
use wt_store::ParamValue;

/// The sweep axes the binder understands, with whether SLA satisfaction is
/// monotone non-decreasing in the axis value (the §4.2 pruning lever).
pub const AXES: &[(&str, bool)] = &[
    ("replication", true),
    ("nic", true),
    ("disk", false),
    ("placement", false),
    ("repair_parallel", true),
    ("mem_gb", true),
    ("racks", true),
    ("nodes_per_rack", true),
    ("oversubscription", false),
    ("objects", false),
    ("object_gb", false),
    ("erasure_k", false),
    ("erasure_m", true),
    ("detection_delay_s", false),
    ("switch_failures", false),
    ("seed", false),
];

/// True if SLA satisfaction is (declared) monotone non-decreasing in this
/// axis — e.g. more replication or a faster NIC never makes an SLA pass
/// become a fail, all else equal.
pub fn is_monotone(axis: &str) -> bool {
    AXES.iter().any(|(name, mono)| *name == axis && *mono)
}

/// True if the binder knows this axis.
pub fn is_known_axis(axis: &str) -> bool {
    AXES.iter().any(|(name, _)| *name == axis)
}

/// A numeric sort key for ordering runs "best-first" along a monotone
/// axis (higher = more likely to pass SLAs).
pub fn monotone_rank(axis: &str, value: &ParamValue) -> f64 {
    match (axis, value) {
        ("nic", ParamValue::Str(s)) => match s.as_str() {
            "1g" => 1.0,
            "10g" => 10.0,
            "40g" => 40.0,
            _ => 0.0,
        },
        (_, v) => v.as_num().unwrap_or(0.0),
    }
}

/// Applies one `(axis, value)` assignment to a scenario.
pub fn apply_assignment(
    scenario: &mut Scenario,
    axis: &str,
    value: &ParamValue,
) -> Result<(), WtqlError> {
    let num = |v: &ParamValue| {
        v.as_num()
            .ok_or_else(|| WtqlError::Semantic(format!("axis '{axis}' needs a numeric value")))
    };
    let string = |v: &ParamValue| match v {
        ParamValue::Str(s) => Ok(s.clone()),
        _ => Err(WtqlError::Semantic(format!(
            "axis '{axis}' needs a string value"
        ))),
    };
    match axis {
        "replication" => {
            let n = whole(axis, value, 0)?;
            if n == 0 {
                return Err(WtqlError::Semantic(
                    "replication needs at least one replica".into(),
                ));
            }
            scenario.redundancy = RedundancyScheme::replication(n);
        }
        "erasure_k" => {
            let k = whole(axis, value, 0)?;
            let m = match scenario.redundancy {
                RedundancyScheme::Erasure(s) => s.m,
                _ => 2,
            };
            scenario.redundancy = erasure(k, m)?;
        }
        "erasure_m" => {
            let m = whole(axis, value, 0)?;
            let k = match scenario.redundancy {
                RedundancyScheme::Erasure(s) => s.k,
                _ => 6,
            };
            scenario.redundancy = erasure(k, m)?;
        }
        "nic" => {
            let nic = match string(value)?.as_str() {
                "1g" => catalog::nic_1g(),
                "10g" => catalog::nic_10g(),
                "40g" => catalog::nic_40g(),
                other => return Err(WtqlError::Semantic(format!("unknown NIC model '{other}'"))),
            };
            scenario.topology.node.nic = nic;
        }
        "disk" => {
            let disk = match string(value)?.as_str() {
                "hdd" => catalog::hdd_7200_4t(),
                "ssd" => catalog::ssd_sata_1t(),
                "nvme" => catalog::ssd_nvme_2t(),
                other => return Err(WtqlError::Semantic(format!("unknown disk model '{other}'"))),
            };
            let count = scenario.topology.node.disks.len();
            scenario.topology.node.disks = vec![disk; count];
        }
        "placement" => {
            scenario.placement = match string(value)?.as_str() {
                "R" | "random" => Placement::Random,
                "RR" | "roundrobin" => Placement::RoundRobin,
                "CS" | "copyset" => Placement::Copyset { scatter_width: 4 },
                "RA" | "rackaware" => Placement::RackAware {
                    nodes_per_rack: scenario.topology.nodes_per_rack,
                },
                other => {
                    return Err(WtqlError::Semantic(format!(
                        "unknown placement policy '{other}'"
                    )))
                }
            };
        }
        "repair_parallel" => {
            scenario.repair.max_parallel = whole(axis, value, 1)?;
        }
        "detection_delay_s" => {
            scenario.repair.detection_delay_s = num(value)?;
        }
        "mem_gb" => {
            scenario.topology.node.mem = catalog::mem_ddr3(num(value)?);
        }
        "racks" => {
            scenario.topology.racks = whole(axis, value, 0)?;
        }
        "nodes_per_rack" => {
            scenario.topology.nodes_per_rack = whole(axis, value, 0)?;
        }
        "oversubscription" => {
            scenario.topology.oversubscription = num(value)?;
        }
        "objects" => {
            scenario.objects = whole(axis, value, 0)?;
        }
        "object_gb" => {
            scenario.object_bytes = (num(value)? * (1u64 << 30) as f64) as u64;
        }
        "switch_failures" => match value {
            ParamValue::Bool(b) => scenario.switch_failures = *b,
            _ => {
                return Err(WtqlError::Semantic(
                    "axis 'switch_failures' needs TRUE or FALSE".into(),
                ))
            }
        },
        "seed" => {
            scenario.seed = whole(axis, value, 0)?;
        }
        other => {
            return Err(WtqlError::Semantic(format!("unknown sweep axis '{other}'")));
        }
    }
    Ok(())
}

/// The value of an integer axis: a whole number of at least `min` that
/// fits `T`, or the error naming the axis and the value. A fraction, a
/// negative or a value past the type is rejected rather than cast, so a
/// point never runs a configuration other than the one its row prints.
fn whole<T: TryFrom<u64>>(axis: &str, value: &ParamValue, min: u64) -> Result<T, WtqlError> {
    // 2^64: the first f64 past u64::MAX.
    const U64_END: f64 = 18_446_744_073_709_551_616.0;
    if let Some(x) = value.as_num() {
        if x.fract() == 0.0 && x >= min as f64 && x < U64_END {
            if let Ok(n) = T::try_from(x as u64) {
                return Ok(n);
            }
        }
    }
    Err(WtqlError::Semantic(format!(
        "axis '{axis}' needs a whole number from {min} to {}, got {value}",
        u64::MAX
    )))
}

/// An erasure scheme, or the stripe-shape error its constructor would
/// assert on.
fn erasure(k: usize, m: usize) -> Result<RedundancyScheme, WtqlError> {
    StripeSpec::check(k, m).map_err(WtqlError::Semantic)?;
    Ok(RedundancyScheme::erasure(k, m))
}

/// The INJECT kinds the binder understands, with their argument names.
/// `at` (injection time, seconds) is accepted by every kind and defaults
/// to 0.
pub const INJECT_KINDS: &[(&str, &[&str])] = &[
    ("power_loss", &["first_rack", "racks", "restore"]),
    ("tor_death", &["rack", "repair"]),
    ("agg_partition", &["first_rack", "racks", "heal"]),
    (
        "gray_storm",
        &[
            "target",
            "probability",
            "slowdown",
            "center_rack",
            "radius",
            "duration",
        ],
    ),
    ("maintenance", &["first_node", "nodes", "duration"]),
    (
        "repair_throttle",
        &["max_parallel", "duration", "breaker_pending"],
    ),
];

/// Validates an injection's kind, argument names, and axis references
/// without needing a concrete assignment — called once at plan time so
/// a typo fails the whole query instead of every row.
pub fn check_injection(inj: &Injection, swept_axes: &[String]) -> Result<(), WtqlError> {
    let args = INJECT_KINDS
        .iter()
        .find(|(kind, _)| *kind == inj.kind)
        .map(|(_, args)| *args)
        .ok_or_else(|| {
            WtqlError::Semantic(format!(
                "unknown INJECT kind '{}' (known: {})",
                inj.kind,
                INJECT_KINDS
                    .iter()
                    .map(|(k, _)| *k)
                    .collect::<Vec<_>>()
                    .join(", ")
            ))
        })?;
    for (key, arg) in &inj.args {
        if key != "at" && !args.contains(&key.as_str()) {
            return Err(WtqlError::Semantic(format!(
                "INJECT {}(...) has no argument '{key}' (accepts: at, {})",
                inj.kind,
                args.join(", ")
            )));
        }
        if let InjectArg::Axis(axis) = arg {
            if !swept_axes.iter().any(|a| a == axis) {
                return Err(WtqlError::Semantic(format!(
                    "INJECT {}({key} = {axis}) references an axis that is not swept",
                    inj.kind
                )));
            }
        }
    }
    Ok(())
}

/// Resolves an injection against one grid point's assignment, producing
/// the concrete fault-schedule rule for that run.
pub fn resolve_injection(
    inj: &Injection,
    assignment: &[(String, ParamValue)],
) -> Result<InjectionRule, WtqlError> {
    let resolved: Vec<(String, ParamValue)> = inj
        .args
        .iter()
        .map(|(key, arg)| {
            let value = match arg {
                InjectArg::Value(v) => v.clone(),
                InjectArg::Axis(axis) => assignment
                    .iter()
                    .find(|(a, _)| a == axis)
                    .map(|(_, v)| v.clone())
                    .ok_or_else(|| {
                        WtqlError::Semantic(format!(
                            "INJECT {}({key} = {axis}) references an axis that is not swept",
                            inj.kind
                        ))
                    })?,
            };
            Ok((key.clone(), value))
        })
        .collect::<Result<_, WtqlError>>()?;
    let num = |key: &str| -> Result<f64, WtqlError> {
        resolved
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.as_num())
            .ok_or_else(|| {
                WtqlError::Semantic(format!(
                    "INJECT {}(...) needs a numeric '{key}' argument",
                    inj.kind
                ))
            })
    };
    let at_s = resolved
        .iter()
        .find(|(k, _)| k == "at")
        .and_then(|(_, v)| v.as_num())
        .unwrap_or(0.0);
    let fault = match inj.kind.as_str() {
        "power_loss" => FaultKind::PowerDomainLoss {
            first_rack: num("first_rack")? as usize,
            racks: num("racks")? as usize,
            restore_s: num("restore")?,
        },
        "tor_death" => FaultKind::TorDeath {
            rack: num("rack")? as usize,
            repair_s: num("repair")?,
        },
        "agg_partition" => FaultKind::AggPartition {
            first_rack: num("first_rack")? as usize,
            racks: num("racks")? as usize,
            heal_s: num("heal")?,
        },
        "gray_storm" => {
            let target = match resolved.iter().find(|(k, _)| k == "target") {
                Some((_, ParamValue::Str(s))) => match s.as_str() {
                    "disk" => LimpTarget::Disk,
                    "nic" => LimpTarget::Nic,
                    other => {
                        return Err(WtqlError::Semantic(format!(
                            "gray_storm target must be \"disk\" or \"nic\", got \"{other}\""
                        )))
                    }
                },
                None => LimpTarget::Disk,
                Some(_) => {
                    return Err(WtqlError::Semantic(
                        "gray_storm 'target' needs a string value".into(),
                    ))
                }
            };
            FaultKind::GrayStorm {
                spec: LimpwareSpec {
                    target,
                    probability: num("probability")?,
                    slowdown: Dist::deterministic(num("slowdown")?),
                },
                center_rack: num("center_rack")? as usize,
                radius_racks: num("radius")? as usize,
                duration_s: num("duration")?,
            }
        }
        "maintenance" => FaultKind::MaintenanceWindow {
            first_node: num("first_node")? as usize,
            nodes: num("nodes")? as usize,
            duration_s: num("duration")?,
        },
        "repair_throttle" => FaultKind::RepairThrottle {
            max_parallel: num("max_parallel")? as usize,
            duration_s: num("duration")?,
            breaker_pending: num("breaker_pending")? as usize,
        },
        other => {
            return Err(WtqlError::Semantic(format!(
                "unknown INJECT kind '{other}'"
            )))
        }
    };
    Ok(InjectionRule {
        name: inj.kind.clone(),
        at_s,
        fault,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use windtunnel::ScenarioBuilder;

    fn base() -> Scenario {
        ScenarioBuilder::new("base")
            .racks(3)
            .nodes_per_rack(10)
            .build()
    }

    #[test]
    fn replication_axis() {
        let mut s = base();
        apply_assignment(&mut s, "replication", &ParamValue::Num(5.0)).unwrap();
        assert_eq!(s.redundancy.width(), 5);
    }

    #[test]
    fn nic_axis_resolves_catalog() {
        let mut s = base();
        apply_assignment(&mut s, "nic", &ParamValue::Str("1g".into())).unwrap();
        assert_eq!(s.topology.node.nic.bandwidth_gbps, 1.0);
        apply_assignment(&mut s, "nic", &ParamValue::Str("40g".into())).unwrap();
        assert_eq!(s.topology.node.nic.bandwidth_gbps, 40.0);
        assert!(apply_assignment(&mut s, "nic", &ParamValue::Str("100g".into())).is_err());
    }

    #[test]
    fn disk_axis_replaces_all_disks() {
        let mut s = base();
        let count = s.topology.node.disks.len();
        apply_assignment(&mut s, "disk", &ParamValue::Str("nvme".into())).unwrap();
        assert_eq!(s.topology.node.disks.len(), count);
        assert!(s
            .topology
            .node
            .disks
            .iter()
            .all(|d| d.name == "ssd-nvme-2t"));
    }

    #[test]
    fn placement_axis() {
        let mut s = base();
        apply_assignment(&mut s, "placement", &ParamValue::Str("RR".into())).unwrap();
        assert_eq!(s.placement, Placement::RoundRobin);
        apply_assignment(&mut s, "placement", &ParamValue::Str("CS".into())).unwrap();
        assert!(matches!(s.placement, Placement::Copyset { .. }));
        apply_assignment(&mut s, "placement", &ParamValue::Str("RA".into())).unwrap();
        assert_eq!(
            s.placement,
            Placement::RackAware {
                nodes_per_rack: s.topology.nodes_per_rack
            }
        );
    }

    #[test]
    fn erasure_axes_compose() {
        let mut s = base();
        apply_assignment(&mut s, "erasure_k", &ParamValue::Num(10.0)).unwrap();
        apply_assignment(&mut s, "erasure_m", &ParamValue::Num(4.0)).unwrap();
        assert_eq!(s.redundancy.width(), 14);
        assert_eq!(s.redundancy.label(), "rs(10,4)");
    }

    #[test]
    fn numeric_axes() {
        let mut s = base();
        apply_assignment(&mut s, "repair_parallel", &ParamValue::Num(8.0)).unwrap();
        assert_eq!(s.repair.max_parallel, 8);
        apply_assignment(&mut s, "mem_gb", &ParamValue::Num(256.0)).unwrap();
        assert_eq!(s.topology.node.mem.capacity_gb, 256.0);
        apply_assignment(&mut s, "objects", &ParamValue::Num(500.0)).unwrap();
        assert_eq!(s.objects, 500);
        apply_assignment(&mut s, "object_gb", &ParamValue::Num(2.0)).unwrap();
        assert_eq!(s.object_bytes, 2 << 30);
        apply_assignment(&mut s, "seed", &ParamValue::Num(77.0)).unwrap();
        assert_eq!(s.seed, 77);
    }

    #[test]
    fn integer_axes_take_only_whole_numbers_in_range() {
        let axes = [
            "replication",
            "erasure_k",
            "erasure_m",
            "repair_parallel",
            "racks",
            "nodes_per_rack",
            "objects",
            "seed",
        ];
        for axis in axes {
            for bad in [2.5, -1.0, 1e300, f64::INFINITY, f64::NAN] {
                let e = apply_assignment(&mut base(), axis, &ParamValue::Num(bad)).unwrap_err();
                assert!(
                    e.to_string()
                        .contains(&format!("axis '{axis}' needs a whole number")),
                    "{axis} = {bad}: {e}"
                );
            }
        }
        let e = apply_assignment(&mut base(), "repair_parallel", &ParamValue::Num(0.0));
        assert!(e.unwrap_err().to_string().contains("from 1 to"));
        let mut s = base();
        apply_assignment(&mut s, "seed", &ParamValue::Num(9_007_199_254_740_992.0)).unwrap();
        assert_eq!(s.seed, 1 << 53);
    }

    #[test]
    fn unknown_axis_rejected() {
        let mut s = base();
        let e = apply_assignment(&mut s, "warp_drive", &ParamValue::Num(1.0)).unwrap_err();
        assert!(e.to_string().contains("unknown sweep axis"));
    }

    #[test]
    fn wrong_value_type_rejected() {
        let mut s = base();
        assert!(apply_assignment(&mut s, "replication", &ParamValue::Str("three".into())).is_err());
        assert!(apply_assignment(&mut s, "nic", &ParamValue::Num(10.0)).is_err());
    }

    #[test]
    fn switch_failures_axis() {
        let mut s = base();
        apply_assignment(&mut s, "switch_failures", &ParamValue::Bool(true)).unwrap();
        assert!(s.switch_failures);
        apply_assignment(&mut s, "switch_failures", &ParamValue::Bool(false)).unwrap();
        assert!(!s.switch_failures);
        assert!(apply_assignment(&mut s, "switch_failures", &ParamValue::Num(1.0)).is_err());
    }

    #[test]
    fn monotonicity_registry() {
        assert!(is_monotone("replication"));
        assert!(is_monotone("nic"));
        assert!(!is_monotone("placement"));
        assert!(is_known_axis("disk"));
        assert!(!is_known_axis("nonsense"));
    }

    #[test]
    fn injection_resolves_axis_refs() {
        let inj = Injection {
            kind: "power_loss".into(),
            args: vec![
                ("at".into(), InjectArg::Value(ParamValue::Num(3600.0))),
                ("first_rack".into(), InjectArg::Value(ParamValue::Num(0.0))),
                ("racks".into(), InjectArg::Axis("blast".into())),
                ("restore".into(), InjectArg::Value(ParamValue::Num(900.0))),
            ],
        };
        let assignment = vec![("blast".to_string(), ParamValue::Num(2.0))];
        let rule = resolve_injection(&inj, &assignment).unwrap();
        assert_eq!(rule.name, "power_loss");
        assert_eq!(rule.at_s, 3600.0);
        assert_eq!(
            rule.fault,
            FaultKind::PowerDomainLoss {
                first_rack: 0,
                racks: 2,
                restore_s: 900.0
            }
        );
    }

    #[test]
    fn injection_missing_axis_rejected() {
        let inj = Injection {
            kind: "tor_death".into(),
            args: vec![
                ("rack".into(), InjectArg::Axis("blast".into())),
                ("repair".into(), InjectArg::Value(ParamValue::Num(60.0))),
            ],
        };
        let e = resolve_injection(&inj, &[]).unwrap_err();
        assert!(e.to_string().contains("not swept"), "{e}");
    }

    #[test]
    fn injection_gray_storm_builds_spec() {
        let inj = Injection {
            kind: "gray_storm".into(),
            args: vec![
                (
                    "target".into(),
                    InjectArg::Value(ParamValue::Str("nic".into())),
                ),
                ("probability".into(), InjectArg::Value(ParamValue::Num(0.5))),
                ("slowdown".into(), InjectArg::Value(ParamValue::Num(10.0))),
                ("center_rack".into(), InjectArg::Value(ParamValue::Num(1.0))),
                ("radius".into(), InjectArg::Value(ParamValue::Num(1.0))),
                ("duration".into(), InjectArg::Value(ParamValue::Num(600.0))),
            ],
        };
        let rule = resolve_injection(&inj, &[]).unwrap();
        match rule.fault {
            FaultKind::GrayStorm {
                spec, radius_racks, ..
            } => {
                assert_eq!(spec.target, LimpTarget::Nic);
                assert_eq!(spec.probability, 0.5);
                assert_eq!(radius_racks, 1);
            }
            other => panic!("expected gray storm, got {other:?}"),
        }
    }

    #[test]
    fn check_injection_validates_kind_args_and_axes() {
        let swept = vec!["blast".to_string()];
        let ok = Injection {
            kind: "maintenance".into(),
            args: vec![
                ("first_node".into(), InjectArg::Value(ParamValue::Num(0.0))),
                ("nodes".into(), InjectArg::Axis("blast".into())),
                ("duration".into(), InjectArg::Value(ParamValue::Num(60.0))),
            ],
        };
        check_injection(&ok, &swept).unwrap();

        let bad_kind = Injection {
            kind: "meteor_strike".into(),
            args: vec![],
        };
        assert!(check_injection(&bad_kind, &swept)
            .unwrap_err()
            .to_string()
            .contains("unknown INJECT kind"));

        let bad_arg = Injection {
            kind: "tor_death".into(),
            args: vec![("rak".into(), InjectArg::Value(ParamValue::Num(0.0)))],
        };
        assert!(check_injection(&bad_arg, &swept)
            .unwrap_err()
            .to_string()
            .contains("no argument"));

        let bad_axis = Injection {
            kind: "tor_death".into(),
            args: vec![("rack".into(), InjectArg::Axis("nope".into()))],
        };
        assert!(check_injection(&bad_axis, &swept)
            .unwrap_err()
            .to_string()
            .contains("not swept"));
    }

    #[test]
    fn monotone_rank_orders_nics() {
        let r1 = monotone_rank("nic", &ParamValue::Str("1g".into()));
        let r10 = monotone_rank("nic", &ParamValue::Str("10g".into()));
        let r40 = monotone_rank("nic", &ParamValue::Str("40g".into()));
        assert!(r1 < r10 && r10 < r40);
        assert_eq!(monotone_rank("replication", &ParamValue::Num(5.0)), 5.0);
    }
}
