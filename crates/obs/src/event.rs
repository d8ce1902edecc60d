//! Schema-versioned structured event log with JSONL rendering and a
//! ring-buffer mode for bounded memory.
//!
//! Every record serializes as one JSON object per line with a `"v"` schema
//! version and a `"kind"` discriminator. `ObsEvent::from_json` is strict:
//! unknown kinds, missing fields, and wrong versions are errors, which is
//! what `obs-report` uses to validate trace files.

use std::collections::VecDeque;

use crate::json::Json;

/// Version stamped into every record; bump when the schema changes shape.
pub const SCHEMA_VERSION: u64 = 1;

/// One structured trace record.
#[derive(Debug, Clone, PartialEq)]
pub enum ObsEvent {
    /// Run header: which CLI command (or harness) produced this trace.
    Meta {
        /// Command or harness name.
        cmd: String,
    },
    /// A closed span: slash-joined path and wall-clock duration.
    Span {
        /// Slash-joined span path, e.g. `experiment_run/engine_run`.
        path: String,
        /// Duration in nanoseconds.
        dur_ns: u64,
    },
    /// A sensor sample ingested by the fleet monitor.
    Sample {
        /// Simulation time of the sample, seconds.
        t_secs: f64,
        /// Server index.
        server: usize,
        /// Measured sensor temperature, °C.
        temp_c: f64,
    },
    /// A forecast issued for a future time.
    Forecast {
        /// Simulation time the forecast was issued, seconds.
        t_secs: f64,
        /// Server index.
        server: usize,
        /// Simulation time the forecast targets, seconds.
        target_t_secs: f64,
        /// Predicted temperature, °C.
        temp_c: f64,
    },
    /// A matured forecast scored against ground truth.
    ForecastScored {
        /// Simulation time of scoring, seconds.
        t_secs: f64,
        /// Server index.
        server: usize,
        /// Signed forecast error (predicted − measured), °C.
        err_c: f64,
    },
    /// An online calibration (γ) update.
    GammaUpdate {
        /// Simulation time of the update, seconds.
        t_secs: f64,
        /// New γ value.
        gamma: f64,
    },
    /// A re-anchor of a server's warm-up curve.
    Reanchor {
        /// Simulation time of the re-anchor, seconds.
        t_secs: f64,
        /// Server index.
        server: usize,
        /// Anchor temperature φ₀, °C.
        phi0_c: f64,
        /// Predicted stable temperature ψ_stable, °C.
        psi_stable_c: f64,
        /// Trigger: `initial`, `vm_boot`, `vm_stop`, `migration_start`,
        /// or `migration_complete`.
        reason: String,
    },
    /// One fault-injector mutation of a delivered sensor sample.
    Fault {
        /// Simulation time of the delivery, seconds.
        t_secs: f64,
        /// Server index.
        server: usize,
        /// Channel that touched the sample: `stuck`, `spike`, `dropout`,
        /// or `jitter`.
        channel: String,
    },
    /// An alert-rule transition (fired or cleared).
    Alert {
        /// Simulation time of the transition, seconds.
        t_secs: f64,
        /// Rule name.
        name: String,
        /// Metric instance the rule matched (full labelled key).
        instance: String,
        /// Metric value at the transition.
        value: f64,
        /// Rule threshold.
        threshold: f64,
        /// True on firing, false on clearing.
        fired: bool,
    },
    /// One SMO solve, with iteration count and kernel-cache stats.
    SmoSolve {
        /// Number of training points.
        n: usize,
        /// Optimizer iterations.
        iterations: usize,
        /// Whether the solver hit its tolerance.
        converged: bool,
        /// Wall-clock duration, nanoseconds.
        dur_ns: u64,
        /// Kernel row-cache hits during the solve.
        cache_hits: u64,
        /// Kernel row-cache misses during the solve.
        cache_misses: u64,
    },
}

impl ObsEvent {
    /// The `"kind"` discriminator this event serializes with.
    pub fn kind(&self) -> &'static str {
        match self {
            ObsEvent::Meta { .. } => "meta",
            ObsEvent::Span { .. } => "span",
            ObsEvent::Sample { .. } => "sample",
            ObsEvent::Forecast { .. } => "forecast",
            ObsEvent::ForecastScored { .. } => "forecast_scored",
            ObsEvent::GammaUpdate { .. } => "gamma_update",
            ObsEvent::Reanchor { .. } => "reanchor",
            ObsEvent::Fault { .. } => "fault",
            ObsEvent::Alert { .. } => "alert",
            ObsEvent::SmoSolve { .. } => "smo_solve",
        }
    }

    /// Serializes the event as a JSON object (one JSONL record).
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("v", Json::Num(SCHEMA_VERSION as f64)),
            ("kind", Json::str(self.kind())),
        ];
        match self {
            ObsEvent::Meta { cmd } => pairs.push(("cmd", Json::str(cmd))),
            ObsEvent::Span { path, dur_ns } => {
                pairs.push(("path", Json::str(path)));
                pairs.push(("dur_ns", Json::Num(*dur_ns as f64)));
            }
            ObsEvent::Sample {
                t_secs,
                server,
                temp_c,
            } => {
                pairs.push(("t_secs", Json::Num(*t_secs)));
                pairs.push(("server", Json::Num(*server as f64)));
                pairs.push(("temp_c", Json::Num(*temp_c)));
            }
            ObsEvent::Forecast {
                t_secs,
                server,
                target_t_secs,
                temp_c,
            } => {
                pairs.push(("t_secs", Json::Num(*t_secs)));
                pairs.push(("server", Json::Num(*server as f64)));
                pairs.push(("target_t_secs", Json::Num(*target_t_secs)));
                pairs.push(("temp_c", Json::Num(*temp_c)));
            }
            ObsEvent::ForecastScored {
                t_secs,
                server,
                err_c,
            } => {
                pairs.push(("t_secs", Json::Num(*t_secs)));
                pairs.push(("server", Json::Num(*server as f64)));
                pairs.push(("err_c", Json::Num(*err_c)));
            }
            ObsEvent::GammaUpdate { t_secs, gamma } => {
                pairs.push(("t_secs", Json::Num(*t_secs)));
                pairs.push(("gamma", Json::Num(*gamma)));
            }
            ObsEvent::Reanchor {
                t_secs,
                server,
                phi0_c,
                psi_stable_c,
                reason,
            } => {
                pairs.push(("t_secs", Json::Num(*t_secs)));
                pairs.push(("server", Json::Num(*server as f64)));
                pairs.push(("phi0_c", Json::Num(*phi0_c)));
                pairs.push(("psi_stable_c", Json::Num(*psi_stable_c)));
                pairs.push(("reason", Json::str(reason)));
            }
            ObsEvent::Fault {
                t_secs,
                server,
                channel,
            } => {
                pairs.push(("t_secs", Json::Num(*t_secs)));
                pairs.push(("server", Json::Num(*server as f64)));
                pairs.push(("channel", Json::str(channel)));
            }
            ObsEvent::Alert {
                t_secs,
                name,
                instance,
                value,
                threshold,
                fired,
            } => {
                pairs.push(("t_secs", Json::Num(*t_secs)));
                pairs.push(("name", Json::str(name)));
                pairs.push(("instance", Json::str(instance)));
                pairs.push(("value", Json::Num(*value)));
                pairs.push(("threshold", Json::Num(*threshold)));
                pairs.push(("fired", Json::Bool(*fired)));
            }
            ObsEvent::SmoSolve {
                n,
                iterations,
                converged,
                dur_ns,
                cache_hits,
                cache_misses,
            } => {
                pairs.push(("n", Json::Num(*n as f64)));
                pairs.push(("iterations", Json::Num(*iterations as f64)));
                pairs.push(("converged", Json::Bool(*converged)));
                pairs.push(("dur_ns", Json::Num(*dur_ns as f64)));
                pairs.push(("cache_hits", Json::Num(*cache_hits as f64)));
                pairs.push(("cache_misses", Json::Num(*cache_misses as f64)));
            }
        }
        Json::obj(pairs)
    }

    /// Parses one record, rejecting wrong versions, unknown kinds, and
    /// missing or mistyped fields.
    pub fn from_json(json: &Json) -> Result<ObsEvent, String> {
        let v = json
            .get("v")
            .and_then(Json::as_u64)
            .ok_or_else(|| "missing numeric 'v' field".to_string())?;
        if v != SCHEMA_VERSION {
            return Err(format!(
                "unsupported schema version {v} (expected {SCHEMA_VERSION})"
            ));
        }
        let kind = json
            .get("kind")
            .and_then(Json::as_str)
            .ok_or_else(|| "missing string 'kind' field".to_string())?;
        let num = |key: &str| -> Result<f64, String> {
            json.get(key)
                .and_then(Json::as_num)
                .ok_or_else(|| format!("{kind}: missing numeric '{key}'"))
        };
        let uint = |key: &str| -> Result<u64, String> {
            json.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("{kind}: missing non-negative integer '{key}'"))
        };
        let string = |key: &str| -> Result<String, String> {
            json.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("{kind}: missing string '{key}'"))
        };
        match kind {
            "meta" => Ok(ObsEvent::Meta {
                cmd: string("cmd")?,
            }),
            "span" => Ok(ObsEvent::Span {
                path: string("path")?,
                dur_ns: uint("dur_ns")?,
            }),
            "sample" => Ok(ObsEvent::Sample {
                t_secs: num("t_secs")?,
                server: uint("server")? as usize,
                temp_c: num("temp_c")?,
            }),
            "forecast" => Ok(ObsEvent::Forecast {
                t_secs: num("t_secs")?,
                server: uint("server")? as usize,
                target_t_secs: num("target_t_secs")?,
                temp_c: num("temp_c")?,
            }),
            "forecast_scored" => Ok(ObsEvent::ForecastScored {
                t_secs: num("t_secs")?,
                server: uint("server")? as usize,
                err_c: num("err_c")?,
            }),
            "gamma_update" => Ok(ObsEvent::GammaUpdate {
                t_secs: num("t_secs")?,
                gamma: num("gamma")?,
            }),
            "reanchor" => Ok(ObsEvent::Reanchor {
                t_secs: num("t_secs")?,
                server: uint("server")? as usize,
                phi0_c: num("phi0_c")?,
                psi_stable_c: num("psi_stable_c")?,
                reason: string("reason")?,
            }),
            "fault" => Ok(ObsEvent::Fault {
                t_secs: num("t_secs")?,
                server: uint("server")? as usize,
                channel: string("channel")?,
            }),
            "alert" => Ok(ObsEvent::Alert {
                t_secs: num("t_secs")?,
                name: string("name")?,
                instance: string("instance")?,
                value: num("value")?,
                threshold: num("threshold")?,
                fired: json
                    .get("fired")
                    .and_then(Json::as_bool)
                    .ok_or_else(|| "alert: missing bool 'fired'".to_string())?,
            }),
            "smo_solve" => Ok(ObsEvent::SmoSolve {
                n: uint("n")? as usize,
                iterations: uint("iterations")? as usize,
                converged: json
                    .get("converged")
                    .and_then(Json::as_bool)
                    .ok_or_else(|| "smo_solve: missing bool 'converged'".to_string())?,
                dur_ns: uint("dur_ns")?,
                cache_hits: uint("cache_hits")?,
                cache_misses: uint("cache_misses")?,
            }),
            other => Err(format!("unknown event kind '{other}'")),
        }
    }
}

/// How the in-memory event log bounds itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceMode {
    /// Keep every event (bounded only by memory).
    Unbounded,
    /// Keep at most `cap` most-recent events, evicting the oldest.
    Ring(usize),
}

/// An in-memory buffer of trace events.
pub struct EventLog {
    mode: TraceMode,
    events: VecDeque<ObsEvent>,
    /// Events discarded by ring-buffer eviction.
    dropped: u64,
}

impl EventLog {
    /// Creates an event log with the given retention mode.
    pub fn new(mode: TraceMode) -> EventLog {
        EventLog {
            mode,
            events: VecDeque::new(),
            dropped: 0,
        }
    }

    /// Appends one event, evicting the oldest in ring mode.
    pub fn push(&mut self, event: ObsEvent) {
        if let TraceMode::Ring(cap) = self.mode {
            if cap == 0 {
                self.dropped += 1;
                return;
            }
            while self.events.len() >= cap {
                self.events.pop_front();
                self.dropped += 1;
            }
        }
        self.events.push_back(event);
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events evicted by the ring buffer so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Removes and returns all buffered events, oldest first.
    pub fn drain(&mut self) -> Vec<ObsEvent> {
        self.events.drain(..).collect()
    }

    /// Clones the buffered events, oldest first, without draining them —
    /// the flight recorder snapshots the ring on alert firings while the
    /// run keeps tracing.
    #[must_use]
    pub fn snapshot(&self) -> Vec<ObsEvent> {
        self.events.iter().cloned().collect()
    }
}

/// Renders events as JSONL: one record per line, each ending in `\n`. The
/// one writer behind trace files, flight-recorder dumps and test fixtures.
#[must_use]
pub fn to_jsonl(events: &[ObsEvent]) -> String {
    let mut out = String::new();
    for event in events {
        out.push_str(&event.to_json().render());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn samples() -> Vec<ObsEvent> {
        vec![
            ObsEvent::Meta {
                cmd: "monitor".to_string(),
            },
            ObsEvent::Span {
                path: "experiment_run/engine_run".to_string(),
                dur_ns: 1234,
            },
            ObsEvent::Sample {
                t_secs: 10.0,
                server: 1,
                temp_c: 55.5,
            },
            ObsEvent::Forecast {
                t_secs: 10.0,
                server: 1,
                target_t_secs: 70.0,
                temp_c: 58.0,
            },
            ObsEvent::ForecastScored {
                t_secs: 70.0,
                server: 1,
                err_c: -0.75,
            },
            ObsEvent::GammaUpdate {
                t_secs: 25.0,
                gamma: 0.12,
            },
            ObsEvent::Reanchor {
                t_secs: 400.0,
                server: 2,
                phi0_c: 48.0,
                psi_stable_c: 61.0,
                reason: "migration_start".to_string(),
            },
            ObsEvent::Fault {
                t_secs: 120.0,
                server: 0,
                channel: "spike".to_string(),
            },
            ObsEvent::Alert {
                t_secs: 500.0,
                name: "headroom".to_string(),
                instance: "vmtherm_monitor_temp_headroom_c{server=\"0\"}".to_string(),
                value: 2.1,
                threshold: 3.0,
                fired: true,
            },
            ObsEvent::SmoSolve {
                n: 240,
                iterations: 1800,
                converged: true,
                dur_ns: 5_000_000,
                cache_hits: 900,
                cache_misses: 240,
            },
        ]
    }

    #[test]
    fn every_event_round_trips_through_jsonl() {
        for event in samples() {
            let line = event.to_json().render();
            let parsed = json::parse(&line).expect("line parses");
            assert_eq!(ObsEvent::from_json(&parsed).expect("valid record"), event);
        }
    }

    #[test]
    fn rejects_wrong_version_and_unknown_kind() {
        let bad_version = json::parse("{\"v\":99,\"kind\":\"meta\",\"cmd\":\"x\"}").unwrap();
        assert!(ObsEvent::from_json(&bad_version).is_err());
        let bad_kind = json::parse("{\"v\":1,\"kind\":\"mystery\"}").unwrap();
        assert!(ObsEvent::from_json(&bad_kind).is_err());
        let missing_field = json::parse("{\"v\":1,\"kind\":\"span\",\"path\":\"p\"}").unwrap();
        assert!(ObsEvent::from_json(&missing_field).is_err());
    }

    #[test]
    fn ring_mode_evicts_oldest() {
        let mut log = EventLog::new(TraceMode::Ring(2));
        for t in 0..5 {
            log.push(ObsEvent::GammaUpdate {
                t_secs: t as f64,
                gamma: 0.0,
            });
        }
        assert_eq!(log.len(), 2);
        assert_eq!(log.dropped(), 3);
        let kept = log.drain();
        assert_eq!(
            kept[0],
            ObsEvent::GammaUpdate {
                t_secs: 3.0,
                gamma: 0.0
            }
        );
        assert_eq!(
            kept[1],
            ObsEvent::GammaUpdate {
                t_secs: 4.0,
                gamma: 0.0
            }
        );
        assert!(log.is_empty());
    }

    #[test]
    fn jsonl_has_one_line_per_event() {
        let text = to_jsonl(&samples());
        assert_eq!(text.lines().count(), samples().len());
        for line in text.lines() {
            let parsed = json::parse(line).expect("line parses");
            ObsEvent::from_json(&parsed).expect("valid record");
        }
    }
}
