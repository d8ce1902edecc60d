//! Live-scrape-under-load test: HTTP scrapes of the obs registry around
//! and during an engine run must neither fail nor perturb the simulation.
//!
//! Overlap with stepping is likely but not guaranteed: in a release
//! build the 1,800-s run can finish before the first response arrives,
//! and then the test shows only that scrapes started with the run and
//! completed intact, and that the run's end state is unchanged.
//!
//! This is the integration-level counterpart of the obs crate's own
//! serve tests: there the registry is poked by hand; here a real
//! [`Simulation`] (in event-driven clock mode, so wake bookkeeping runs
//! too) feeds the registry while concurrent clients scrape `/metrics`.
//! The end state must be bit-identical to an unserved, unscraped run —
//! serving is read-only by construction, and this pins it.

use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use vmtherm_obs::{self as obs, ScrapeServer};
use vmtherm_sim::{
    AmbientModel, ClockMode, Datacenter, ServerId, ServerSpec, SimTime, Simulation, TaskProfile,
    VmSpec,
};
use vmtherm_units::Celsius;

fn scrape(addr: SocketAddr, path: &str) -> (u16, String) {
    use std::io::{Read, Write};
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    stream
        .write_all(
            format!("GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n").as_bytes(),
        )
        .expect("write");
    let mut out = String::new();
    stream.read_to_string(&mut out).expect("read");
    let status = out
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    let body = out
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

fn build_sim() -> Simulation {
    let dc = Datacenter::homogeneous(&ServerSpec::standard("srv"), 6, 8, Celsius::new(24.0), 3);
    let mut sim = Simulation::new(dc, AmbientModel::Fixed(24.0), 21).with_clock(ClockMode::Event);
    for s in 0..6 {
        sim.boot_vm_now(
            ServerId::new(s),
            VmSpec::new(format!("vm-{s}"), 1, 2.0, TaskProfile::Idle),
        )
        .expect("placement");
    }
    sim
}

fn fingerprint(sim: &Simulation) -> Vec<u64> {
    let mut bits = vec![sim.datacenter().room_heat_kw().to_bits()];
    for s in 0..sim.datacenter().len() {
        let server = sim.datacenter().server(ServerId::new(s)).expect("server");
        bits.push(server.die_temperature().to_bits());
        bits.push(server.last_power().to_bits());
        bits.push(server.last_utilization().to_bits());
    }
    bits
}

#[test]
fn concurrent_scrapes_during_engine_stepping_do_not_perturb_the_run() {
    // Baseline: no server, obs disabled.
    let mut baseline = build_sim();
    baseline.run_until(SimTime::from_secs(1800));
    let expected = fingerprint(&baseline);

    obs::set_enabled(true);
    let server = ScrapeServer::start("127.0.0.1:0").expect("bind ephemeral");
    let addr = server.local_addr();

    // Scrapers hammer /metrics until the engine has finished stepping:
    // every response must be a complete 200, torn or failed scrapes fail
    // the worker thread and therefore the test. All four threads meet at
    // the barrier, so every scraper starts its first request as stepping
    // starts, and completes it before looking at `done`: a run that ends
    // before any response arrives still sees one scrape per scraper.
    let start = Arc::new(Barrier::new(4));
    let done = Arc::new(AtomicBool::new(false));
    let scrapers: Vec<_> = (0..3)
        .map(|_| {
            let start = Arc::clone(&start);
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                start.wait();
                let mut scrapes = 0u32;
                loop {
                    let (status, body) = scrape(addr, "/metrics");
                    assert_eq!(status, 200);
                    assert!(!body.is_empty());
                    scrapes += 1;
                    if done.load(Ordering::Relaxed) {
                        break;
                    }
                }
                scrapes
            })
        })
        .collect();

    let mut sim = build_sim();
    start.wait();
    sim.run_until(SimTime::from_secs(1800));
    done.store(true, Ordering::Relaxed);

    let mut total_scrapes = 0;
    for s in scrapers {
        total_scrapes += s.join().expect("scraper thread");
    }

    // After stepping, the engine's counters are visible over HTTP.
    let (status, body) = scrape(addr, "/metrics");
    assert_eq!(status, 200);
    assert!(
        body.contains("vmtherm_engine_steps_total"),
        "engine metrics missing from scrape: {body}"
    );

    drop(server);
    obs::set_enabled(false);

    // Holds by construction (each scraper completes one request before
    // it reads `done`); it guards that ordering, not overlap with stepping.
    assert!(total_scrapes > 0, "scrapers never ran");
    assert_eq!(
        fingerprint(&sim),
        expected,
        "serving + scraping changed the physical end state"
    );
    assert!(sim.step_stats().skip_factor() > 1.0);
}
