//! Pins the ×pipes fabric's cycle-true behaviour to recorded values.
//!
//! The equivalence suites compare engines that share one router model,
//! and the canonical campaign digest does not cover arbitration
//! conflicts, so neither catches a change to how routers switch and
//! arbitrate. This suite does: every point below replays a fixed
//! workload and compares cycles, fabric statistics, packet latency and
//! the full contention summary (conflicts, grant-wait count/sum/max,
//! per-master grants/stall/busy) against constants recorded from the
//! reference model. A mismatch prints every recomputed line, so a
//! deliberate behaviour change can be re-recorded in one step.

use std::sync::Arc;

use ntg_bench::MAX_CYCLES;
use ntg_mem::{AddressMap, MemoryDevice, RegionKind};
use ntg_noc::{Interconnect, XpipesConfig, XpipesNoc};
use ntg_ocp::{LinkArena, MasterId, OcpRequest, SlaveId};
use ntg_platform::InterconnectChoice;
use ntg_sim::{Component, LinkMetrics};
use ntg_workloads::synthetic::{build_synthetic_platform, SyntheticSpec};

/// One line per point: the recorded fabric behaviour.
const EXPECTED: &[&str] = &[
    "4x4 6P uniform+bernoulli@0.05/4: cycles=1164 tx=288 hops=4350 lat=13.03125/36 conflicts=521 gw=288/261/9 links=48/45/288,48/56/288,48/54/288,48/31/288,48/23/288,48/52/288",
    "4x4 6P uniform+bernoulli@0.3/4: cycles=547 tx=288 hops=4350 lat=24.26388888888889/73 conflicts=1434 gw=288/2181/31 links=48/407/288,48/422/288,48/363/288,48/341/288,48/329/288,48/319/288",
    "4x4 6P uniform+burst:4@0.05/4: cycles=940 tx=288 hops=4380 lat=18.350694444444443/63 conflicts=1130 gw=288/1154/28 links=48/178/288,48/261/288,48/207/288,48/154/288,48/179/288,48/175/288",
    "4x4 6P uniform+burst:4@0.3/4: cycles=598 tx=288 hops=4380 lat=23.975694444444443/95 conflicts=1383 gw=288/2224/61 links=48/469/288,48/482/288,48/319/288,48/353/288,48/286/288,48/315/288",
    "4x4 6P transpose+bernoulli@0.05/4: cycles=1105 tx=288 hops=4320 lat=21.489583333333332/60 conflicts=1079 gw=288/587/19 links=48/36/288,48/44/288,48/35/288,48/45/288,48/324/288,48/103/288",
    "4x4 6P transpose+bernoulli@0.3/4: cycles=1018 tx=288 hops=4320 lat=41.142361111111114/76 conflicts=2199 gw=288/3174/19 links=48/206/288,48/827/288,48/215/288,48/207/288,48/862/288,48/857/288",
    "4x4 6P transpose+burst:4@0.05/4: cycles=1018 tx=288 hops=4320 lat=29.46527777777778/76 conflicts=1957 gw=288/1822/19 links=48/144/288,48/256/288,48/144/288,48/144/288,48/596/288,48/538/288",
    "4x4 6P transpose+burst:4@0.3/4: cycles=1018 tx=288 hops=4320 lat=41.24652777777778/76 conflicts=2202 gw=288/3186/19 links=48/211/288,48/832/288,48/215/288,48/207/288,48/863/288,48/858/288",
    "4x4 6P hotspot:20+bernoulli@0.05/4: cycles=1233 tx=288 hops=4182 lat=15.82986111111111/59 conflicts=849 gw=288/473/22 links=48/130/288,48/154/288,48/51/288,48/74/288,48/27/288,48/37/288",
    "4x4 6P hotspot:20+bernoulli@0.3/4: cycles=870 tx=288 hops=4182 lat=32.125/137 conflicts=2453 gw=288/3369/62 links=48/752/288,48/736/288,48/546/288,48/496/288,48/412/288,48/427/288",
    "4x4 6P hotspot:20+burst:4@0.05/4: cycles=950 tx=288 hops=4182 lat=21.32986111111111/63 conflicts=1499 gw=288/1385/42 links=48/223/288,48/255/288,48/227/288,48/173/288,48/229/288,48/278/288",
    "4x4 6P hotspot:20+burst:4@0.3/4: cycles=718 tx=288 hops=4182 lat=29.819444444444443/112 conflicts=2170 gw=288/3036/45 links=48/590/288,48/600/288,48/489/288,48/476/288,48/412/288,48/469/288",
    "8x8 24P uniform+bernoulli@0.05/4: cycles=1271 tx=1152 hops=39156 lat=39.94618055555556/232 conflicts=13256 gw=1152/9638/129 links=48/666/288,48/711/288,48/388/288,48/139/288,48/379/288,48/750/288,48/971/288,48/845/288,48/473/288,48/548/288,48/246/288,48/192/288,48/204/288,48/303/288,48/405/288,48/484/288,48/627/288,48/582/288,48/164/288,48/160/288,48/125/288,48/108/288,48/113/288,48/55/288",
    "8x8 24P uniform+bernoulli@0.3/4: cycles=1200 tx=1152 hops=39156 lat=51.075520833333336/304 conflicts=18431 gw=1152/19991/156 links=48/1058/288,48/998/288,48/844/288,48/716/288,48/679/288,48/779/288,48/982/288,48/952/288,48/1072/288,48/1053/288,48/816/288,48/741/288,48/666/288,48/793/288,48/1001/288,48/1009/288,48/914/288,48/919/288,48/741/288,48/444/288,48/615/288,48/691/288,48/782/288,48/726/288",
    "8x8 24P uniform+burst:4@0.05/4: cycles=1228 tx=1152 hops=39540 lat=50.650173611111114/279 conflicts=18322 gw=1152/16591/175 links=48/687/288,48/866/288,48/485/288,48/362/288,48/351/288,48/713/288,48/1014/288,48/1056/288,48/881/288,48/1040/288,48/731/288,48/419/288,48/637/288,48/939/288,48/1072/288,48/1038/288,48/506/288,48/734/288,48/527/288,48/254/288,48/385/288,48/515/288,48/713/288,48/666/288",
    "8x8 24P uniform+burst:4@0.3/4: cycles=1351 tx=1152 hops=39540 lat=53.263020833333336/373 conflicts=19544 gw=1152/21286/183 links=48/968/288,48/996/288,48/811/288,48/644/288,48/868/288,48/1029/288,48/1187/288,48/1231/288,48/966/288,48/1037/288,48/927/288,48/658/288,48/881/288,48/931/288,48/1146/288,48/1136/288,48/781/288,48/839/288,48/674/288,48/432/288,48/492/288,48/734/288,48/949/288,48/969/288",
    "8x8 24P transpose+bernoulli@0.05/4: cycles=1787 tx=1152 hops=30528 lat=44.872395833333336/274 conflicts=16547 gw=1152/16317/94 links=48/57/288,48/397/288,48/83/288,48/671/288,48/63/288,48/1511/288,48/1524/288,48/1336/288,48/186/288,48/329/288,48/14/288,48/121/288,48/71/288,48/85/288,48/74/288,48/33/288,48/1563/288,48/1613/288,48/1274/288,48/892/288,48/504/288,48/883/288,48/1560/288,48/1473/288",
    "8x8 24P transpose+bernoulli@0.3/4: cycles=1787 tx=1152 hops=30528 lat=53.08506944444444/274 conflicts=19848 gw=1152/23138/94 links=48/451/288,48/947/288,48/464/288,48/999/288,48/550/288,48/1557/288,48/1561/288,48/1557/288,48/731/288,48/738/288,48/281/288,48/743/288,48/455/288,48/467/288,48/443/288,48/455/288,48/1626/288,48/1631/288,48/1318/288,48/1003/288,48/989/288,48/1013/288,48/1596/288,48/1563/288",
    "8x8 24P transpose+burst:4@0.05/4: cycles=1788 tx=1152 hops=30528 lat=49.845486111111114/273 conflicts=19078 gw=1152/19489/94 links=48/252/288,48/760/288,48/252/288,48/886/288,48/179/288,48/1516/288,48/1556/288,48/1524/288,48/228/288,48/276/288,48/180/288,48/372/288,48/252/288,48/252/288,48/144/288,48/252/288,48/1627/288,48/1632/288,48/1318/288,48/944/288,48/963/288,48/975/288,48/1585/288,48/1564/288",
    "8x8 24P transpose+burst:4@0.3/4: cycles=1788 tx=1152 hops=30528 lat=53.14149305555556/273 conflicts=19882 gw=1152/23203/94 links=48/461/288,48/964/288,48/461/288,48/990/288,48/549/288,48/1557/288,48/1571/288,48/1561/288,48/735/288,48/739/288,48/281/288,48/741/288,48/461/288,48/461/288,48/447/288,48/461/288,48/1627/288,48/1632/288,48/1318/288,48/1004/288,48/1009/288,48/1013/288,48/1585/288,48/1575/288",
    "8x8 24P hotspot:20+bernoulli@0.05/4: cycles=2309 tx=1152 hops=39750 lat=67.98350694444444/1438 conflicts=27805 gw=1152/27960/866 links=48/683/288,48/968/288,48/1420/288,48/1569/288,48/1734/288,48/1904/288,48/2089/288,48/2112/288,48/328/288,48/690/288,48/932/288,48/1297/288,48/1446/288,48/1647/288,48/1819/288,48/1825/288,48/31/288,48/94/288,48/353/288,48/584/288,48/606/288,48/1061/288,48/1397/288,48/1371/288",
    "8x8 24P hotspot:20+bernoulli@0.3/4: cycles=2334 tx=1152 hops=39750 lat=71.84027777777777/1406 conflicts=29520 gw=1152/32025/849 links=48/781/288,48/1124/288,48/1381/288,48/1571/288,48/1743/288,48/1936/288,48/2176/288,48/2203/288,48/586/288,48/867/288,48/1177/288,48/1442/288,48/1546/288,48/1748/288,48/1949/288,48/1987/288,48/361/288,48/472/288,48/663/288,48/881/288,48/1030/288,48/1329/288,48/1523/288,48/1549/288",
    "8x8 24P hotspot:20+burst:4@0.05/4: cycles=2150 tx=1152 hops=39798 lat=66.75347222222223/1208 conflicts=26935 gw=1152/27900/797 links=48/461/288,48/926/288,48/1174/288,48/1386/288,48/1471/288,48/1644/288,48/1895/288,48/1813/288,48/339/288,48/779/288,48/920/288,48/1387/288,48/1551/288,48/1770/288,48/1979/288,48/1951/288,48/219/288,48/388/288,48/500/288,48/709/288,48/908/288,48/1165/288,48/1296/288,48/1269/288",
    "8x8 24P hotspot:20+burst:4@0.3/4: cycles=2160 tx=1152 hops=39798 lat=68.63368055555556/1143 conflicts=27625 gw=1152/30081/787 links=48/667/288,48/1041/288,48/1280/288,48/1456/288,48/1554/288,48/1712/288,48/1948/288,48/1896/288,48/473/288,48/835/288,48/1026/288,48/1451/288,48/1552/288,48/1782/288,48/2039/288,48/2017/288,48/324/288,48/527/288,48/741/288,48/837/288,48/955/288,48/1225/288,48/1361/288,48/1382/288",
    "tight fifo=1 4M4S: cycles=637 tx=160 packets=236 hops=1585 lat=8.169491525423728/28 conflicts=98 gw=160/124/9 links=40/28/191,40/21/190,40/34/193,40/41/186",
];

fn link_counters(links: &[LinkMetrics]) -> String {
    let parts: Vec<String> = links
        .iter()
        .map(|l| format!("{}/{}/{}", l.grants, l.stall_cycles, l.busy_cycles))
        .collect();
    parts.join(",")
}

/// Synthetic masters on an explicit mesh, run through the platform.
fn platform_point(w: u16, h: u16, masters: usize, desc: &str) -> String {
    let spec: SyntheticSpec = desc.parse().expect("descriptor parses");
    let mut p = build_synthetic_platform(masters, InterconnectChoice::Mesh(w, h), spec, 48, 0x5EED)
        .expect("build synthetic platform");
    p.enable_metrics();
    let r = p.run(MAX_CYCLES);
    assert!(r.completed, "{w}x{h} {desc}: run did not complete");
    let m = r.metrics.expect("metrics enabled");
    let (lat_mean, lat_max) = r.latency.expect("packets were delivered");
    format!(
        "{w}x{h} {masters}P {desc}: cycles={} tx={} hops={} lat={lat_mean:?}/{lat_max} \
         conflicts={} gw={}/{}/{} links={}",
        r.cycles,
        r.transactions,
        m.fabric_utilization_cycles,
        m.conflicts,
        m.grant_wait_count,
        m.grant_wait_sum,
        m.grant_wait_max,
        link_counters(&m.links),
    )
}

/// Blocking masters driving mixed reads and writes through a mesh with
/// single-flit input FIFOs — maximal backpressure, built directly with
/// [`XpipesNoc::new`].
fn tight_fifo_point() -> String {
    const MASTERS: usize = 4;
    const SLAVES: usize = 4;
    const PER_MASTER: u32 = 40;
    let mut map = AddressMap::new();
    let mut links = LinkArena::new();
    let mut cpus = Vec::new();
    let mut net_masters = Vec::new();
    for i in 0..MASTERS {
        let (m, s) = links.channel(format!("cpu{i}"), MasterId(i as u16));
        cpus.push(m);
        net_masters.push(s);
    }
    let mut mems = Vec::new();
    let mut net_slaves = Vec::new();
    for k in 0..SLAVES {
        let base = 0x1000 * (k as u32 + 1);
        map.add(
            format!("m{k}"),
            base,
            0x1000,
            SlaveId(k as u16),
            RegionKind::SharedMemory,
        )
        .unwrap();
        let (m, s) = links.channel(format!("slave{k}"), MasterId(0));
        net_slaves.push(m);
        mems.push(MemoryDevice::new(format!("mem{k}"), base, 0x1000, s));
    }
    let mut cfg = XpipesConfig::auto(MASTERS, SLAVES);
    cfg.input_fifo_flits = 1;
    let mut noc = XpipesNoc::new("tight", net_masters, net_slaves, Arc::new(map), cfg);

    // Per master: requests left, and what it blocks on (true: response).
    let mut remaining = [PER_MASTER; MASTERS];
    let mut waiting: [Option<bool>; MASTERS] = [None; MASTERS];
    let mut rng = 0x2545_F491_4F6C_DD1Du64;
    let mut now = 0;
    loop {
        for c in 0..MASTERS {
            match waiting[c] {
                Some(true) if cpus[c].take_response(&mut links, now).is_some() => waiting[c] = None,
                Some(false) if cpus[c].take_accept(&mut links, now).is_some() => waiting[c] = None,
                Some(_) => {}
                None if remaining[c] > 0 => {
                    rng ^= rng << 13;
                    rng ^= rng >> 7;
                    rng ^= rng << 17;
                    let addr = 0x1000 * ((rng >> 8) % SLAVES as u64 + 1) as u32
                        + ((rng >> 16) % 0x100) as u32 * 4;
                    let req = match rng % 4 {
                        0 => OcpRequest::read(addr),
                        1 => OcpRequest::burst_read(addr, 4),
                        2 => OcpRequest::write(addr, c as u32),
                        _ => OcpRequest::burst_write(addr, vec![1, 2, 3]),
                    };
                    waiting[c] = Some(req.cmd.expects_response());
                    cpus[c].assert_request(&mut links, req, now);
                    remaining[c] -= 1;
                }
                None => {}
            }
        }
        noc.tick(now, &mut links);
        for m in &mut mems {
            m.tick(now, &mut links);
        }
        now += 1;
        let done = remaining.iter().all(|&r| r == 0) && waiting.iter().all(Option::is_none);
        if done && noc.is_idle(&links) {
            break;
        }
        assert!(now < 100_000, "tight-FIFO mesh did not drain");
    }
    let stats = noc.stats();
    let lat = noc.packet_latency();
    let c = noc.contention();
    format!(
        "tight fifo=1 {MASTERS}M{SLAVES}S: cycles={now} tx={} packets={} hops={} lat={:?}/{} \
         conflicts={} gw={}/{}/{} links={}",
        noc.transactions(),
        stats.packets,
        stats.flit_hops,
        lat.mean().expect("packets were delivered"),
        lat.max().expect("packets were delivered"),
        c.conflicts,
        c.grant_wait.count(),
        c.grant_wait.sum(),
        c.grant_wait.max().unwrap_or(0),
        link_counters(&c.links),
    )
}

#[test]
fn xpipes_fabric_matches_recorded_behaviour() {
    let mut actual = Vec::new();
    for (w, h, masters) in [(4u16, 4u16, 6usize), (8, 8, 24)] {
        for pattern in ["uniform", "transpose", "hotspot:20"] {
            for shape in ["bernoulli", "burst:4"] {
                for rate in ["0.05", "0.3"] {
                    let desc = format!("{pattern}+{shape}@{rate}/4");
                    actual.push(platform_point(w, h, masters, &desc));
                }
            }
        }
    }
    actual.push(tight_fifo_point());
    if actual != EXPECTED {
        let mut msg = String::from("xpipes behaviour changed; recomputed lines:\n");
        for line in &actual {
            msg.push_str(&format!("    \"{line}\",\n"));
        }
        panic!("{msg}");
    }
}
