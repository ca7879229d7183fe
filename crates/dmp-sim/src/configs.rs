//! The paper's simulation configurations (Section 5, Tables 1–3).

use dmp_core::spec::VideoSpec;
use netsim::apps::HttpParams;

/// One bottleneck-link configuration from Table 1 of the paper.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BottleneckConfig {
    /// Configuration number (1–4).
    pub id: u8,
    /// Long-lived FTP background flows sharing the bottleneck.
    pub ftp_flows: usize,
    /// On/off HTTP background sessions sharing the bottleneck.
    pub http_flows: usize,
    /// Propagation delay of the bottleneck link, ms.
    pub delay_ms: f64,
    /// Bottleneck bandwidth, Mbps.
    pub bandwidth_mbps: f64,
    /// Drop-tail buffer size, packets.
    pub buffer_pkts: usize,
    /// Maximum window of the background TCP flows, packets. Table 1 does not
    /// specify it; these values are calibrated so the measured loss rates and
    /// RTTs land in the band Table 2 reports (see DESIGN.md).
    pub bg_wnd: u32,
    /// Page sizes and think times of the HTTP sessions. Table 1 does not
    /// specify them either; every configuration uses [`WEB_SESSIONS`].
    pub http: HttpParams,
}

/// The HTTP sessions of every Table 1 configuration: classic web-workload
/// numbers (ns-2 webtraf era), ~10 KB mean pages with a heavy tail and think
/// times of a few seconds. Each session then offers ~1-2 pkt/s — tens of
/// sessions add up to a bursty but secondary load next to the FTP flows,
/// which is what Table 2's measured loss rates (2–5%) imply. Being a field
/// of every configuration, it is in every simulation's cache key.
pub const WEB_SESSIONS: HttpParams = HttpParams {
    mean_page_pkts: 8.0,
    pareto_shape: 1.3,
    max_page_pkts: 200,
    mean_think_s: 4.0,
};

/// Table 1: the four bottleneck configurations.
pub const TABLE1: [BottleneckConfig; 4] = [
    BottleneckConfig {
        id: 1,
        ftp_flows: 9,
        http_flows: 40,
        delay_ms: 40.0,
        bandwidth_mbps: 3.7,
        buffer_pkts: 50,
        bg_wnd: 20,
        http: WEB_SESSIONS,
    },
    BottleneckConfig {
        id: 2,
        ftp_flows: 9,
        http_flows: 40,
        delay_ms: 1.0,
        bandwidth_mbps: 3.7,
        buffer_pkts: 50,
        bg_wnd: 20,
        http: WEB_SESSIONS,
    },
    BottleneckConfig {
        id: 3,
        ftp_flows: 19,
        http_flows: 40,
        delay_ms: 40.0,
        bandwidth_mbps: 5.0,
        buffer_pkts: 50,
        bg_wnd: 20,
        http: WEB_SESSIONS,
    },
    BottleneckConfig {
        id: 4,
        ftp_flows: 5,
        http_flows: 20,
        delay_ms: 1.0,
        bandwidth_mbps: 5.0,
        buffer_pkts: 30,
        bg_wnd: 20,
        http: WEB_SESSIONS,
    },
];

/// Look up a Table 1 configuration by its paper id (1–4).
pub fn config(id: u8) -> &'static BottleneckConfig {
    &TABLE1[(id - 1) as usize]
}

/// [`config`] by value, for the settings below.
const fn table1(id: u8) -> BottleneckConfig {
    TABLE1[(id - 1) as usize]
}

/// One validation setting: the bottleneck configuration used by each path
/// and the video played over them (Section 5.2's "Setting i-j").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Setting {
    /// Human name, e.g. "2-2" or "1-3" (or "corr-2" for correlated paths).
    pub name: &'static str,
    /// Table 1 configuration per path, by value, so that every field of it
    /// is in the cache key of an experiment on this setting.
    pub configs: [BottleneckConfig; 2],
    /// Video spec (paper: µ of 30–80 pkt/s, 1500-byte packets).
    pub video: VideoSpec,
    /// Whether both flows share one bottleneck (Fig. 6) instead of using
    /// independent paths (Fig. 3).
    pub correlated: bool,
}

const fn vid(mu: u32) -> VideoSpec {
    VideoSpec {
        rate_pps: mu as f64,
        packet_bytes: 1500,
    }
}

/// The independent **homogeneous** settings of Table 2 (Setting i-i).
pub const HOMOGENEOUS: [Setting; 4] = [
    Setting {
        name: "1-1",
        configs: [table1(1), table1(1)],
        video: vid(50),
        correlated: false,
    },
    Setting {
        name: "2-2",
        configs: [table1(2), table1(2)],
        video: vid(50),
        correlated: false,
    },
    Setting {
        name: "3-3",
        configs: [table1(3), table1(3)],
        video: vid(30),
        correlated: false,
    },
    Setting {
        name: "4-4",
        configs: [table1(4), table1(4)],
        video: vid(80),
        correlated: false,
    },
];

/// The independent **heterogeneous** settings of Table 2 (Setting i-j).
pub const HETEROGENEOUS: [Setting; 4] = [
    Setting {
        name: "1-2",
        configs: [table1(1), table1(2)],
        video: vid(50),
        correlated: false,
    },
    Setting {
        name: "1-3",
        configs: [table1(1), table1(3)],
        video: vid(40),
        correlated: false,
    },
    Setting {
        name: "2-3",
        configs: [table1(2), table1(3)],
        video: vid(40),
        correlated: false,
    },
    Setting {
        name: "3-4",
        configs: [table1(3), table1(4)],
        video: vid(60),
        correlated: false,
    },
];

/// The correlated-path settings of Table 3 (both flows on one bottleneck).
pub const CORRELATED: [Setting; 4] = [
    Setting {
        name: "corr-1",
        configs: [table1(1), table1(1)],
        video: vid(50),
        correlated: true,
    },
    Setting {
        name: "corr-2",
        configs: [table1(2), table1(2)],
        video: vid(50),
        correlated: true,
    },
    Setting {
        name: "corr-3",
        configs: [table1(3), table1(3)],
        video: vid(30),
        correlated: true,
    },
    Setting {
        name: "corr-4",
        configs: [table1(4), table1(4)],
        video: vid(80),
        correlated: true,
    },
];

/// Find any setting by name across all three tables.
pub fn setting(name: &str) -> Option<&'static Setting> {
    HOMOGENEOUS
        .iter()
        .chain(&HETEROGENEOUS)
        .chain(&CORRELATED)
        .find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper() {
        assert_eq!(TABLE1.len(), 4);
        assert_eq!(config(1).ftp_flows, 9);
        assert_eq!(config(3).ftp_flows, 19);
        assert_eq!(config(4).buffer_pkts, 30);
        assert!((config(2).delay_ms - 1.0).abs() < 1e-12);
        assert!((config(3).bandwidth_mbps - 5.0).abs() < 1e-12);
    }

    #[test]
    fn settings_video_rates_match_table2() {
        assert_eq!(setting("1-1").unwrap().video.rate_pps, 50.0);
        assert_eq!(setting("3-3").unwrap().video.rate_pps, 30.0);
        assert_eq!(setting("4-4").unwrap().video.rate_pps, 80.0);
        assert_eq!(setting("1-3").unwrap().video.rate_pps, 40.0);
        assert_eq!(setting("3-4").unwrap().video.rate_pps, 60.0);
    }

    #[test]
    fn correlated_settings_are_flagged() {
        assert!(setting("corr-2").unwrap().correlated);
        assert!(!setting("2-2").unwrap().correlated);
        assert!(setting("nope").is_none());
    }

    #[test]
    fn video_bitrates_span_paper_range() {
        // Paper: 360–960 kbps.
        for s in HOMOGENEOUS.iter().chain(&HETEROGENEOUS) {
            let kbps = s.video.bitrate_bps() / 1e3;
            assert!((360.0..=960.0).contains(&kbps), "{}: {kbps}", s.name);
        }
    }
}
