//! `dmp-server` — stream a live CBR video over multiple TCP connections with
//! DMP scheduling (one connection per path; backpressure-driven striping).
//!
//! ```sh
//! dmp-server --connect 10.0.0.2:9001,10.0.1.2:9002 --mu 50 --seconds 60
//! ```
//!
//! Each address should be reached over a *different* network path
//! (multihoming, different interfaces, or the `dmp-client`'s ports bridged
//! through emulators/netem). The server needs no knowledge of path
//! bandwidths: senders pull from a shared queue whenever their socket
//! accepts more data. The streaming itself is [`dmp_live::stream::serve`];
//! this file parses the command line and prints.

use std::fmt::Display;
use std::net::SocketAddr;
use std::str::FromStr;

use dmp_core::spec::VideoSpec;
use dmp_live::stream::{connect, serve, LiveConfig, Session};
use dmp_live::wire::HEADER_BYTES;

const USAGE: &str = "usage: dmp-server --connect IP:PORT[,IP:PORT…] [--mu PKTS_PER_S] \
                     [--packet-bytes N] [--seconds S] [--sndbuf BYTES]";

#[derive(Debug, PartialEq)]
struct Args {
    connect: Vec<SocketAddr>,
    mu: f64,
    packet_bytes: u32,
    seconds: f64,
    sndbuf: u32,
}

fn number<T: FromStr<Err: Display>>(flag: &str, val: &str) -> Result<T, String> {
    val.parse().map_err(|e| format!("{flag} `{val}`: {e}"))
}

/// The whole command-line grammar. Whatever would make the stream panic or
/// silently never start is refused here.
fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        connect: vec![],
        mu: 50.0,
        packet_bytes: 1448,
        seconds: 30.0,
        sndbuf: 16 * 1024,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or_else(|| format!("missing value for {flag}"));
        match flag.as_str() {
            "--connect" => {
                let addrs = val()?.split(',').map(|addr| number(flag, addr));
                parsed.connect = addrs.collect::<Result<_, _>>()?
            }
            "--mu" => parsed.mu = number(flag, val()?)?,
            "--packet-bytes" => parsed.packet_bytes = number(flag, val()?)?,
            "--seconds" => parsed.seconds = number(flag, val()?)?,
            "--sndbuf" => parsed.sndbuf = number(flag, val()?)?,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let Args { mu, seconds, .. } = parsed;
    if parsed.connect.is_empty() {
        Err("--connect is required (comma-separated list of client endpoints)".into())
    } else if !(mu.is_finite() && mu > 0.0) {
        Err(format!("--mu must be positive and finite (got {mu})"))
    } else if !(seconds.is_finite() && seconds >= 0.0) {
        Err(format!(
            "--seconds must be finite and not negative (got {seconds})"
        ))
    } else if (parsed.packet_bytes as usize) < HEADER_BYTES {
        Err(format!(
            "--packet-bytes must be at least the {HEADER_BYTES}-byte frame header"
        ))
    } else {
        Ok(parsed)
    }
}

fn main() -> std::io::Result<()> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = parse(&args).unwrap_or_else(|e| {
        eprintln!("dmp-server: {e}\n{USAGE}");
        std::process::exit(2)
    });
    let packets = (args.seconds * args.mu) as u64;
    println!(
        "streaming {} packets ({} pkt/s × {:.0} s, {} B each ≈ {:.0} kbps) over {} path(s)",
        packets,
        args.mu,
        args.seconds,
        args.packet_bytes,
        args.mu * f64::from(args.packet_bytes) * 8.0 / 1e3,
        args.connect.len()
    );
    let cfg = LiveConfig {
        video: VideoSpec {
            rate_pps: args.mu,
            packet_bytes: args.packet_bytes,
        },
        packets,
        send_buf_bytes: args.sndbuf,
        trace: false,
    };
    let session = Session::start(false);
    let socks = connect(&args.connect, args.sndbuf)?;
    let sent = serve(cfg, socks, None, &session, |_| ())?;
    for (path, (n, addr)) in sent.iter().zip(&args.connect).enumerate() {
        let share = 100.0 * *n as f64 / packets.max(1) as f64;
        println!("path {path} ({addr}): sent {n} packets ({share:.0}%)");
    }
    println!("done in {:.1} s", session.elapsed().as_secs_f64());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_strs(args: &[&str]) -> Result<Args, String> {
        parse(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn a_full_command_line_parses() {
        let args = parse_strs(&[
            "--connect",
            "10.0.0.2:9001,127.0.0.1:9002",
            "--mu",
            "69",
            "--packet-bytes",
            "1448",
            "--seconds",
            "2.5",
            "--sndbuf",
            "8192",
        ])
        .expect("parses");
        assert_eq!(args.connect.len(), 2);
        assert_eq!(args.connect[1], "127.0.0.1:9002".parse().unwrap());
        assert_eq!((args.mu, args.packet_bytes), (69.0, 1448));
        assert_eq!((args.seconds, args.sndbuf), (2.5, 8192));
        // The defaults are the paper's Internet packets at 50 pkt/s.
        let defaults = parse_strs(&["--connect", "127.0.0.1:1"]).expect("parses");
        assert_eq!((defaults.mu, defaults.packet_bytes), (50.0, 1448));
    }

    #[test]
    fn bad_command_lines_are_refused_not_panicked_on() {
        let ok = ["--connect", "127.0.0.1:9001"];
        let with = |extra: &[&str]| parse_strs(&[&ok[..], extra].concat()).unwrap_err();
        assert!(parse_strs(&[])
            .unwrap_err()
            .contains("--connect is required"));
        assert!(parse_strs(&["--connect", "nonsense"])
            .unwrap_err()
            .contains("`nonsense`"));
        assert!(parse_strs(&["--connect", "127.0.0.1:1,host:2"])
            .unwrap_err()
            .contains("`host:2`"));
        assert!(parse_strs(&["--connect"])
            .unwrap_err()
            .contains("missing value"));
        assert!(with(&["--mu", "0"]).contains("--mu must be positive"));
        assert!(with(&["--mu", "-3"]).contains("--mu must be positive"));
        assert!(with(&["--mu", "inf"]).contains("--mu must be positive"));
        assert!(with(&["--mu", "NaN"]).contains("--mu must be positive"));
        assert!(with(&["--mu", "fast"]).contains("--mu `fast`"));
        assert!(with(&["--seconds", "-1"]).contains("--seconds must be finite"));
        assert!(with(&["--packet-bytes", "10"]).contains("frame header"));
        assert!(with(&["--sndbuf", "-1"]).contains("--sndbuf `-1`"));
        assert!(with(&["--frobnicate", "1"]).contains("unknown flag `--frobnicate`"));
    }
}
