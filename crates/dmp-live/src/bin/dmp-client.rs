//! `dmp-client` — receive a DMP-striped live stream on multiple TCP ports,
//! reassemble it, and report the fraction of late packets for a set of
//! startup delays.
//!
//! ```sh
//! dmp-client --listen 9001,9002 --mu 50 --tau 2,4,6,8
//! ```
//!
//! Clock handling: server timestamps ride in the frames but the two hosts'
//! clocks are not synchronised, so the client anchors the playback schedule
//! at the **minimum observed one-way latency** (the earliest packet is
//! assumed "on time"); all lateness is measured relative to that anchor.
//! This matches how the paper post-processes its tcpdump traces. The
//! receiving itself is [`dmp_live::stream::receive`]; this file parses the
//! command line, applies the anchor and prints.

use std::fmt::Display;
use std::net::SocketAddr;
use std::str::FromStr;
use std::sync::{Mutex, PoisonError};
use std::thread;

use dmp_live::stream::{accept, listen, receive, Arrival, Session};

const USAGE: &str = "usage: dmp-client --listen PORT[,PORT…] [--mu PKTS_PER_S] [--tau S,S,…]";

#[derive(Debug, PartialEq)]
struct Args {
    ports: Vec<u16>,
    mu: f64,
    taus: Vec<f64>,
}

fn number<T: FromStr<Err: Display>>(flag: &str, val: &str) -> Result<T, String> {
    val.parse().map_err(|e| format!("{flag} `{val}`: {e}"))
}

fn numbers<T: FromStr<Err: Display>>(flag: &str, list: &str) -> Result<Vec<T>, String> {
    list.split(',').map(|val| number(flag, val)).collect()
}

/// The whole command-line grammar.
fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        ports: vec![],
        mu: 50.0,
        taus: vec![2.0, 4.0, 6.0, 8.0, 10.0],
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or_else(|| format!("missing value for {flag}"));
        match flag.as_str() {
            "--listen" => parsed.ports = numbers(flag, val()?)?,
            "--mu" => parsed.mu = number(flag, val()?)?,
            "--tau" => parsed.taus = numbers(flag, val()?)?,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let mu = parsed.mu;
    if parsed.ports.is_empty() {
        Err("--listen is required (comma-separated list of ports)".into())
    } else if !(mu.is_finite() && mu > 0.0) {
        Err(format!("--mu must be positive and finite (got {mu})"))
    } else if let Some(tau) = parsed.taus.iter().find(|t| !(t.is_finite() && **t >= 0.0)) {
        Err(format!("--tau must be finite and not negative (got {tau})"))
    } else {
        Ok(parsed)
    }
}

/// The fraction of late packets at each startup delay, with the playback
/// schedule anchored at the minimum observed one-way latency. Packets up to
/// the highest sequence number seen that never arrived are late. `None`
/// when nothing arrived.
fn late_fractions(arrivals: &[Arrival], taus: &[f64]) -> Option<Vec<f64>> {
    let one_way = |&(_, pkt, at): &Arrival| i128::from(at) - i128::from(pkt.gen_ns);
    let anchor = arrivals.iter().map(one_way).min()?;
    let sent = arrivals.iter().map(|(_, pkt, _)| pkt.seq).max()? + 1;
    let of_tau = |tau: &f64| {
        let tau_ns = (tau * 1e9) as i128;
        let on_time = arrivals.iter().filter(|a| one_way(a) - anchor <= tau_ns);
        (sent - on_time.count() as u64) as f64 / sent as f64
    };
    Some(taus.iter().map(of_tau).collect())
}

fn main() -> std::io::Result<()> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = parse(&args).unwrap_or_else(|e| {
        eprintln!("dmp-client: {e}\n{USAGE}");
        std::process::exit(2)
    });
    let addrs: Vec<SocketAddr> = args.ports.iter().map(|&p| ([0; 4], p).into()).collect();
    let (listeners, _) = listen(&addrs)?;
    println!(
        "listening on ports {:?} (µ = {} pkt/s)…",
        args.ports, args.mu
    );
    let socks = accept(&listeners)?;
    let arrivals = Mutex::new(Vec::new());
    let sink = |a: Arrival| {
        arrivals
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(a)
    };
    let session = Session::start(false);
    let counts = thread::scope(|s| -> std::io::Result<_> {
        Ok(receive(s, socks, &session, &sink)?.join(None))
    })?;
    for (path, count) in counts.into_iter().enumerate() {
        match count {
            Ok(n) => println!("path {path}: received {n} packets"),
            Err(e) => eprintln!("path {path}: reader error: {e}"),
        }
    }

    let arrivals = arrivals
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    let Some(late) = late_fractions(&arrivals, &args.taus) else {
        println!("no packets received");
        return Ok(());
    };
    println!(
        "\nreceived {} packets; min one-way skew anchor applied",
        arrivals.len()
    );
    for path in 0..args.ports.len() as u32 {
        let n = arrivals.iter().filter(|a| a.0 == path).count();
        let share = 100.0 * n as f64 / arrivals.len() as f64;
        println!("path {path}: {share:.1}% of the stream");
    }
    println!("\nstartup delay → fraction of late packets:");
    for (tau, f) in args.taus.iter().zip(late) {
        println!("  τ = {tau:>5.1} s → {f:.3e}");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmp_core::scheme::StreamPacket;

    fn parse_strs(args: &[&str]) -> Result<Args, String> {
        parse(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn a_full_command_line_parses() {
        let args = parse_strs(&["--listen", "9001,9002", "--mu", "69", "--tau", "0.5,4"]);
        let want = Args {
            ports: vec![9001, 9002],
            mu: 69.0,
            taus: vec![0.5, 4.0],
        };
        assert_eq!(args, Ok(want));
    }

    #[test]
    fn bad_command_lines_are_refused_not_panicked_on() {
        let with =
            |extra: &[&str]| parse_strs(&[&["--listen", "9001"], extra].concat()).unwrap_err();
        assert!(parse_strs(&[])
            .unwrap_err()
            .contains("--listen is required"));
        assert!(parse_strs(&["--listen", "http"])
            .unwrap_err()
            .contains("--listen `http`"));
        assert!(parse_strs(&["--listen", "70000"])
            .unwrap_err()
            .contains("`70000`"));
        assert!(parse_strs(&["--listen"])
            .unwrap_err()
            .contains("missing value"));
        assert!(with(&["--mu", "0"]).contains("--mu must be positive"));
        assert!(with(&["--mu", "-50"]).contains("--mu must be positive"));
        assert!(with(&["--mu", "inf"]).contains("--mu must be positive"));
        assert!(with(&["--mu", "25,50"]).contains("--mu `25,50`"));
        assert!(with(&["--tau", "2,soon"]).contains("--tau `soon`"));
        assert!(with(&["--tau", "2,-1"]).contains("--tau must be finite"));
        assert!(with(&["--port", "1"]).contains("unknown flag `--port`"));
    }

    /// A server clock 1 000 s ahead of the client's and a 40 ms one-way
    /// latency: only what arrives *later than the earliest packet did* by
    /// more than τ is late, and a sequence number that never arrived is.
    #[test]
    fn lateness_is_measured_from_the_minimum_one_way_latency() {
        const SKEW_NS: u64 = 1_000_000_000_000;
        let arrival = |seq: u64, extra_ms: u64| -> Arrival {
            let gen_ns = SKEW_NS + seq * 20_000_000;
            let at_ns = seq * 20_000_000 + (40 + extra_ms) * 1_000_000;
            ((seq % 2) as u32, StreamPacket { seq, gen_ns }, at_ns)
        };
        // Packet 2 took 3 s longer than the rest; packet 3 never arrived.
        let arrivals = [
            arrival(0, 0),
            arrival(1, 0),
            arrival(2, 3_000),
            arrival(4, 0),
        ];
        let late = late_fractions(&arrivals, &[0.0, 2.0, 4.0]).expect("packets arrived");
        assert_eq!(late, vec![0.4, 0.4, 0.2]);
        assert_eq!(late_fractions(&[], &[2.0]), None);
    }
}
