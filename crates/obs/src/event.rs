//! The trace event schema and its JSONL wire format.
//!
//! One event per line, one flat JSON object per event, fields in a fixed
//! order — the encoding is fully deterministic (floats use Rust's shortest
//! round-trip formatting), so byte-comparing two trace files is a valid
//! equality test. The same schema is used for simulation traces (timestamps
//! in simulated nanoseconds) and live-socket traces (nominal nanoseconds
//! since stream start, i.e. wall time divided by the dilation factor).

use dmp_base::json::{JsonRead, Tape};

/// One recorded event: a timestamp in nanoseconds plus the payload.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Nanoseconds since run start (simulated or nominal).
    pub t: u64,
    /// What happened.
    pub kind: EventKind,
}

/// A scripted path-dynamics action, as applied by the scenario driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathAction {
    /// Path administratively downed.
    Down,
    /// Path restored.
    Up,
    /// Flash-crowd flows started.
    FlashStart,
    /// Flash-crowd flows stopped.
    FlashStop,
}

impl PathAction {
    /// Wire name of the action.
    pub fn name(self) -> &'static str {
        match self {
            PathAction::Down => "down",
            PathAction::Up => "up",
            PathAction::FlashStart => "flash_start",
            PathAction::FlashStop => "flash_stop",
        }
    }

    fn from_name(s: &str) -> Option<Self> {
        Some(match s {
            "down" => PathAction::Down,
            "up" => PathAction::Up,
            "flash_start" => PathAction::FlashStart,
            "flash_stop" => PathAction::FlashStop,
            _ => return None,
        })
    }
}

/// The event payload. `conn` identifies a TCP connection (the netsim flow id
/// or the live path socket index); `path` identifies a DMP path; a
/// [`EventKind::PathConn`] header event maps one onto the other.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// Header: DMP path `path` rides on TCP connection `conn`.
    PathConn {
        /// Path index (0-based).
        path: u32,
        /// Connection id.
        conn: u32,
    },
    /// Header: TCP connection `conn` runs congestion-control algorithm
    /// `algo` (`cc::CcKind::name()`); cwnd marks for the connection are
    /// interpreted against it.
    CcAlgo {
        /// Connection id.
        conn: u32,
        /// Stable algorithm name (`"reno"`, `"cubic"`, `"bbr-lite"`).
        algo: String,
    },
    /// Header: the server's pull strategy for this run
    /// (`dmp_core::spec::PullStrategy::name()`).
    Strategy {
        /// Stable strategy name (e.g. `"round-robin"`).
        name: String,
    },
    /// Congestion window or slow-start threshold changed.
    Cwnd {
        /// Connection id.
        conn: u32,
        /// New congestion window, segments (fractional in avoidance).
        cwnd: f64,
        /// Slow-start threshold, segments.
        ssthresh: f64,
    },
    /// Fast recovery entered (`entered = true`) or exited.
    FastRecovery {
        /// Connection id.
        conn: u32,
        /// Whether recovery began (false: ended).
        entered: bool,
    },
    /// A segment was retransmitted.
    Retransmit {
        /// Connection id.
        conn: u32,
        /// Segment number.
        seq: u64,
        /// Fast retransmit (true) vs timeout-driven (false).
        fast: bool,
    },
    /// The retransmission timer expired.
    RtoTimeout {
        /// Connection id.
        conn: u32,
        /// Oldest outstanding segment at expiry.
        seq: u64,
        /// Backoff exponent after this expiry (RTO multiplier is 2^exp).
        backoff_exp: u32,
    },
    /// Occupancy sample of a link's drop-tail queue (decimated: every Nth
    /// change per link).
    LinkQueue {
        /// Link id.
        link: u32,
        /// Queued packets (excluding the one in serialisation).
        depth: u32,
    },
    /// Occupancy sample of the DMP server's shared pull queue.
    SrvQueue {
        /// Queued video packets.
        depth: u32,
    },
    /// DMP pull decision: the server handed packet `seq` to `path`.
    Pull {
        /// Path index.
        path: u32,
        /// Video packet sequence number.
        seq: u64,
        /// Shared-queue depth after the pull.
        queued: u32,
    },
    /// Static-split decision: the splitter assigned packet `seq` to `path`.
    Stripe {
        /// Path index.
        path: u32,
        /// Video packet sequence number.
        seq: u64,
    },
    /// The source generated video packet `seq`.
    Generated {
        /// Video packet sequence number.
        seq: u64,
    },
    /// Video packet `seq` arrived at the client over `path`.
    Delivered {
        /// Path index.
        path: u32,
        /// Video packet sequence number.
        seq: u64,
    },
    /// The scenario driver applied a scripted action to `path`.
    PathEvent {
        /// Path index.
        path: u32,
        /// Which action.
        action: PathAction,
    },
    /// A fleet session arrived (`up = true`) or departed. `session` is the
    /// global session index, stable across shard-chunking choices.
    Session {
        /// Global session index.
        session: u32,
        /// Arrival (true) or departure (false).
        up: bool,
    },
}

/// Format an `f64` deterministically (Rust's shortest round-trip form, which
/// is valid JSON for all finite values).
fn fmt_f64(x: f64) -> String {
    debug_assert!(x.is_finite(), "trace floats must be finite");
    format!("{x:?}")
}

impl TraceEvent {
    /// Encode as one JSONL line (no trailing newline).
    pub fn to_line(&self) -> String {
        let t = self.t;
        match &self.kind {
            EventKind::PathConn { path, conn } => {
                format!("{{\"t\":{t},\"ev\":\"path_conn\",\"path\":{path},\"conn\":{conn}}}")
            }
            EventKind::CcAlgo { conn, algo } => {
                format!("{{\"t\":{t},\"ev\":\"cc_algo\",\"conn\":{conn},\"algo\":\"{algo}\"}}")
            }
            EventKind::Strategy { name } => {
                format!("{{\"t\":{t},\"ev\":\"strategy\",\"name\":\"{name}\"}}")
            }
            EventKind::Cwnd {
                conn,
                cwnd,
                ssthresh,
            } => format!(
                "{{\"t\":{t},\"ev\":\"cwnd\",\"conn\":{conn},\"cwnd\":{},\"ssthresh\":{}}}",
                fmt_f64(*cwnd),
                fmt_f64(*ssthresh)
            ),
            EventKind::FastRecovery { conn, entered } => format!(
                "{{\"t\":{t},\"ev\":\"fastrec\",\"conn\":{conn},\"entered\":{entered}}}"
            ),
            EventKind::Retransmit { conn, seq, fast } => format!(
                "{{\"t\":{t},\"ev\":\"retx\",\"conn\":{conn},\"seq\":{seq},\"fast\":{fast}}}"
            ),
            EventKind::RtoTimeout {
                conn,
                seq,
                backoff_exp,
            } => format!(
                "{{\"t\":{t},\"ev\":\"rto\",\"conn\":{conn},\"seq\":{seq},\"backoff_exp\":{backoff_exp}}}"
            ),
            EventKind::LinkQueue { link, depth } => {
                format!("{{\"t\":{t},\"ev\":\"link_q\",\"link\":{link},\"depth\":{depth}}}")
            }
            EventKind::SrvQueue { depth } => {
                format!("{{\"t\":{t},\"ev\":\"srv_q\",\"depth\":{depth}}}")
            }
            EventKind::Pull { path, seq, queued } => format!(
                "{{\"t\":{t},\"ev\":\"pull\",\"path\":{path},\"seq\":{seq},\"queued\":{queued}}}"
            ),
            EventKind::Stripe { path, seq } => {
                format!("{{\"t\":{t},\"ev\":\"stripe\",\"path\":{path},\"seq\":{seq}}}")
            }
            EventKind::Generated { seq } => format!("{{\"t\":{t},\"ev\":\"gen\",\"seq\":{seq}}}"),
            EventKind::Delivered { path, seq } => {
                format!("{{\"t\":{t},\"ev\":\"dlv\",\"path\":{path},\"seq\":{seq}}}")
            }
            EventKind::PathEvent { path, action } => format!(
                "{{\"t\":{t},\"ev\":\"path_ev\",\"path\":{path},\"action\":\"{}\"}}",
                action.name()
            ),
            EventKind::Session { session, up } => {
                format!("{{\"t\":{t},\"ev\":\"session\",\"session\":{session},\"up\":{up}}}")
            }
        }
    }

    /// Parse one JSONL line back into an event. Returns `None` on malformed
    /// input (a negative, fractional or out-of-range integer field included)
    /// or an unknown event name (forward compatibility: readers skip lines
    /// they do not understand).
    pub fn parse_line(line: &str) -> Option<TraceEvent> {
        let tape = Tape::parse(line)?;
        let obj = tape.root();
        let num = |k: &str| obj.get(k)?.as_f64();
        let int = |k: &str| obj.get(k)?.as_u64();
        let small = |k: &str| u32::try_from(int(k)?).ok();
        let text = |k: &str| obj.get(k)?.as_str();
        let flag = |k: &str| obj.get(k)?.as_bool();
        let t = int("t")?;
        let ev = text("ev")?;
        let kind = match ev {
            "path_conn" => EventKind::PathConn {
                path: small("path")?,
                conn: small("conn")?,
            },
            "cc_algo" => EventKind::CcAlgo {
                conn: small("conn")?,
                algo: text("algo")?.to_string(),
            },
            "strategy" => EventKind::Strategy {
                name: text("name")?.to_string(),
            },
            "cwnd" => EventKind::Cwnd {
                conn: small("conn")?,
                cwnd: num("cwnd")?,
                ssthresh: num("ssthresh")?,
            },
            "fastrec" => EventKind::FastRecovery {
                conn: small("conn")?,
                entered: flag("entered")?,
            },
            "retx" => EventKind::Retransmit {
                conn: small("conn")?,
                seq: int("seq")?,
                fast: flag("fast")?,
            },
            "rto" => EventKind::RtoTimeout {
                conn: small("conn")?,
                seq: int("seq")?,
                backoff_exp: small("backoff_exp")?,
            },
            "link_q" => EventKind::LinkQueue {
                link: small("link")?,
                depth: small("depth")?,
            },
            "srv_q" => EventKind::SrvQueue {
                depth: small("depth")?,
            },
            "pull" => EventKind::Pull {
                path: small("path")?,
                seq: int("seq")?,
                queued: small("queued")?,
            },
            "stripe" => EventKind::Stripe {
                path: small("path")?,
                seq: int("seq")?,
            },
            "gen" => EventKind::Generated { seq: int("seq")? },
            "dlv" => EventKind::Delivered {
                path: small("path")?,
                seq: int("seq")?,
            },
            "path_ev" => EventKind::PathEvent {
                path: small("path")?,
                action: PathAction::from_name(text("action")?)?,
            },
            "session" => EventKind::Session {
                session: small("session")?,
                up: flag("up")?,
            },
            _ => return None,
        };
        Some(TraceEvent { t, kind })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_kinds() -> Vec<TraceEvent> {
        vec![
            TraceEvent {
                t: 0,
                kind: EventKind::PathConn { path: 1, conn: 7 },
            },
            TraceEvent {
                t: 0,
                kind: EventKind::CcAlgo {
                    conn: 7,
                    algo: "bbr-lite".to_string(),
                },
            },
            TraceEvent {
                t: 0,
                kind: EventKind::Strategy {
                    name: "round-robin".to_string(),
                },
            },
            TraceEvent {
                t: 1_500_000_000,
                kind: EventKind::Cwnd {
                    conn: 2,
                    cwnd: 3.5,
                    ssthresh: 8.0,
                },
            },
            TraceEvent {
                t: 2,
                kind: EventKind::FastRecovery {
                    conn: 0,
                    entered: true,
                },
            },
            TraceEvent {
                t: 3,
                kind: EventKind::Retransmit {
                    conn: 0,
                    seq: 88,
                    fast: false,
                },
            },
            TraceEvent {
                t: 4,
                kind: EventKind::RtoTimeout {
                    conn: 1,
                    seq: 90,
                    backoff_exp: 3,
                },
            },
            TraceEvent {
                t: 5,
                kind: EventKind::LinkQueue { link: 3, depth: 17 },
            },
            TraceEvent {
                t: 6,
                kind: EventKind::SrvQueue { depth: 4 },
            },
            TraceEvent {
                t: 7,
                kind: EventKind::Pull {
                    path: 1,
                    seq: 402,
                    queued: 3,
                },
            },
            TraceEvent {
                t: 8,
                kind: EventKind::Stripe { path: 0, seq: 10 },
            },
            TraceEvent {
                t: 9,
                kind: EventKind::Generated { seq: 5 },
            },
            TraceEvent {
                t: 10,
                kind: EventKind::Delivered { path: 0, seq: 5 },
            },
            TraceEvent {
                t: 11,
                kind: EventKind::PathEvent {
                    path: 0,
                    action: PathAction::Down,
                },
            },
            TraceEvent {
                t: 12,
                kind: EventKind::Session {
                    session: 41,
                    up: true,
                },
            },
            TraceEvent {
                t: 13,
                kind: EventKind::Session {
                    session: 41,
                    up: false,
                },
            },
        ]
    }

    #[test]
    fn every_kind_round_trips() {
        for ev in all_kinds() {
            let line = ev.to_line();
            let back =
                TraceEvent::parse_line(&line).unwrap_or_else(|| panic!("failed to parse {line}"));
            assert_eq!(back, ev, "line: {line}");
        }
    }

    #[test]
    fn path_events_carry_only_the_scripted_actions() {
        let line =
            |action: &str| format!(r#"{{"t":1,"ev":"path_ev","path":0,"action":"{action}"}}"#);
        for action in [
            PathAction::Down,
            PathAction::Up,
            PathAction::FlashStart,
            PathAction::FlashStop,
        ] {
            let ev = TraceEvent {
                t: 1,
                kind: EventKind::PathEvent { path: 0, action },
            };
            assert_eq!(ev.to_line(), line(action.name()));
            assert_eq!(TraceEvent::parse_line(&line(action.name())), Some(ev));
        }
        // Rate, delay and loss are not scriptable, so no recorder writes
        // them; a line naming one is skipped like any unknown event.
        for name in ["rate", "delay", "loss", "loss_clear"] {
            assert!(TraceEvent::parse_line(&line(name)).is_none(), "{name}");
        }
    }

    #[test]
    fn fractional_cwnd_survives_exactly() {
        let ev = TraceEvent {
            t: 1,
            kind: EventKind::Cwnd {
                conn: 0,
                cwnd: 7.0 + 1.0 / 7.0,
                ssthresh: 3.5,
            },
        };
        let back = TraceEvent::parse_line(&ev.to_line()).unwrap();
        assert_eq!(back, ev, "shortest round-trip float formatting is exact");
    }

    #[test]
    fn unknown_events_and_garbage_are_skipped_not_fatal() {
        assert!(TraceEvent::parse_line("{\"t\":1,\"ev\":\"future_thing\",\"x\":2}").is_none());
        assert!(TraceEvent::parse_line("not json").is_none());
        assert!(TraceEvent::parse_line("").is_none());
        // Bad integers are skipped too — these once read as t = 0, seq = 1, conn = 1.
        assert!(TraceEvent::parse_line("{\"t\":-5,\"ev\":\"gen\",\"seq\":1}").is_none());
        assert!(TraceEvent::parse_line("{\"t\":5,\"ev\":\"gen\",\"seq\":1.5}").is_none());
        let wide = "{\"t\":5,\"ev\":\"fastrec\",\"conn\":4294967297,\"entered\":true}";
        assert!(TraceEvent::parse_line(wide).is_none());
    }

    #[test]
    fn encoding_is_stable() {
        // The wire format is a contract: byte-comparison of trace files is
        // the determinism test, so the exact bytes matter.
        let ev = TraceEvent {
            t: 42,
            kind: EventKind::Pull {
                path: 1,
                seq: 9,
                queued: 2,
            },
        };
        assert_eq!(
            ev.to_line(),
            "{\"t\":42,\"ev\":\"pull\",\"path\":1,\"seq\":9,\"queued\":2}"
        );
        let tag = TraceEvent {
            t: 0,
            kind: EventKind::CcAlgo {
                conn: 3,
                algo: "cubic".to_string(),
            },
        };
        assert_eq!(
            tag.to_line(),
            "{\"t\":0,\"ev\":\"cc_algo\",\"conn\":3,\"algo\":\"cubic\"}"
        );
        let strat = TraceEvent {
            t: 0,
            kind: EventKind::Strategy {
                name: "best-path".to_string(),
            },
        };
        assert_eq!(
            strat.to_line(),
            "{\"t\":0,\"ev\":\"strategy\",\"name\":\"best-path\"}"
        );
    }
}
