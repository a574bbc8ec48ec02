//! The ×pipes-like wormhole packet-switched 2D-mesh NoC.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use ntg_mem::AddressMap;
use ntg_ocp::{LinkArena, LinkId, MasterPort, OcpRequest, OcpResponse, SlavePort};
use ntg_sim::observe::{Contention, LinkMetrics};
use ntg_sim::stats::Histogram;
use ntg_sim::{Activity, Component, Cycle};

use crate::{Interconnect, InterconnectKind};

/// Router port indices.
const NORTH: usize = 0;
const EAST: usize = 1;
const SOUTH: usize = 2;
const WEST: usize = 3;
const LOCAL: usize = 4;

fn opposite(port: usize) -> usize {
    match port {
        NORTH => SOUTH,
        SOUTH => NORTH,
        EAST => WEST,
        WEST => EAST,
        _ => unreachable!("local port has no opposite"),
    }
}

/// Static configuration of a [`XpipesNoc`].
///
/// Each master and each slave is attached through a network interface
/// (NI) to the local port of one mesh node; at most one NI per node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XpipesConfig {
    /// Mesh width (columns).
    pub width: u16,
    /// Mesh height (rows).
    pub height: u16,
    /// Node index (row-major) of each master NI.
    pub master_nodes: Vec<u16>,
    /// Node index (row-major) of each slave NI.
    pub slave_nodes: Vec<u16>,
    /// Router input FIFO depth in flits.
    pub input_fifo_flits: usize,
}

impl XpipesConfig {
    /// Default router input FIFO depth.
    pub const DEFAULT_FIFO_FLITS: usize = 4;

    /// Builds the smallest near-square mesh that fits `n_masters` +
    /// `n_slaves` NIs, attaching masters first in row-major order, then
    /// slaves.
    pub fn auto(n_masters: usize, n_slaves: usize) -> Self {
        let total = (n_masters + n_slaves).max(1) as u16;
        let mut width = 1u16;
        while width * width < total {
            width += 1;
        }
        let height = total.div_ceil(width);
        Self {
            width,
            height,
            master_nodes: (0..n_masters as u16).collect(),
            slave_nodes: (n_masters as u16..total).collect(),
            input_fifo_flits: Self::DEFAULT_FIFO_FLITS,
        }
    }

    /// Builds an explicit `width`×`height` mesh with the canonical NI
    /// layout ([`XpipesConfig::auto`]'s): masters on nodes
    /// `0..n_masters` in row-major order, slaves directly after.
    ///
    /// # Panics
    ///
    /// Panics if the mesh has fewer nodes than NIs to attach.
    pub fn with_dims(width: u16, height: u16, n_masters: usize, n_slaves: usize) -> Self {
        assert!(width >= 1 && height >= 1, "mesh must be non-empty");
        let total = n_masters + n_slaves;
        assert!(
            (width as usize) * (height as usize) >= total,
            "{width}x{height} mesh has {} nodes but needs {total} for its NIs",
            (width as usize) * (height as usize),
        );
        Self {
            width,
            height,
            master_nodes: (0..n_masters as u16).collect(),
            slave_nodes: (n_masters as u16..total as u16).collect(),
            input_fifo_flits: Self::DEFAULT_FIFO_FLITS,
        }
    }

    fn nodes(&self) -> u16 {
        self.width * self.height
    }

    fn validate(&self, n_masters: usize, n_slaves: usize) {
        assert!(
            self.width >= 1 && self.height >= 1,
            "mesh must be non-empty"
        );
        // Node ids are `u16`: a bigger mesh would silently wrap.
        assert!(
            u32::from(self.width) * u32::from(self.height) <= u32::from(u16::MAX),
            "{}x{} mesh has more than {} nodes",
            self.width,
            self.height,
            u16::MAX,
        );
        assert!(
            self.input_fifo_flits >= 1,
            "FIFOs must hold at least one flit"
        );
        assert_eq!(self.master_nodes.len(), n_masters, "one node per master");
        assert_eq!(self.slave_nodes.len(), n_slaves, "one node per slave");
        let mut seen = vec![false; self.nodes() as usize];
        for &n in self.master_nodes.iter().chain(self.slave_nodes.iter()) {
            assert!(n < self.nodes(), "node {n} outside the mesh");
            assert!(!seen[n as usize], "node {n} hosts two NIs");
            seen[n as usize] = true;
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Flit {
    pid: u32,
    is_head: bool,
    is_tail: bool,
    dst: u16,
}

#[derive(Debug)]
enum Payload {
    Req {
        req: OcpRequest,
        src_master: usize,
    },
    Resp {
        resp: OcpResponse,
        dst_master: usize,
    },
}

#[derive(Debug)]
struct Packet {
    payload: Payload,
    injected_at: Cycle,
}

struct Router {
    inputs: [VecDeque<Flit>; 5],
    out_reg: [Option<Flit>; 5],
    out_owner: [Option<usize>; 5],
    rr: [usize; 5],
}

impl Router {
    fn new() -> Self {
        Self {
            inputs: Default::default(),
            out_reg: [None; 5],
            out_owner: [None; 5],
            rr: [0; 5],
        }
    }

    fn is_empty(&self) -> bool {
        self.inputs.iter().all(VecDeque::is_empty) && self.out_reg.iter().all(Option::is_none)
    }
}

struct MasterNi {
    link: SlavePort,
    node: u16,
    tx: VecDeque<Flit>,
}

struct SlaveNi {
    link: MasterPort,
    node: u16,
    /// Fully reassembled request packets awaiting device service.
    pending: VecDeque<u32>,
    /// Request forwarded to the device: `(src_master, expects_response)`.
    busy: Option<(usize, bool)>,
    tx: VecDeque<Flit>,
}

#[derive(Debug, Clone, Copy)]
enum Attach {
    None,
    Master(usize),
    Slave(usize),
}

/// Bit 63 of an encoded boundary flit: slot occupied.
const FLIT_PRESENT: u64 = 1 << 63;

/// Packs a [`Flit`] into one word for a boundary slot's atomic.
fn encode_flit(f: Flit) -> u64 {
    FLIT_PRESENT
        | (u64::from(f.is_head) << 62)
        | (u64::from(f.is_tail) << 61)
        | (u64::from(f.dst) << 32)
        | u64::from(f.pid)
}

fn decode_flit(bits: u64) -> Flit {
    debug_assert!(bits & FLIT_PRESENT != 0);
    Flit {
        pid: bits as u32,
        is_head: bits & (1 << 62) != 0,
        is_tail: bits & (1 << 61) != 0,
        dst: (bits >> 32) as u16,
    }
}

/// One directed cross-partition link crossing.
///
/// A slot carries at most one flit per cycle — exactly the capacity of
/// the mesh link it stands in for. The exporter writes between the
/// partition scheduler's phase barriers, the importer drains at the start
/// of the following phase; `occupancy` mirrors the destination input
/// FIFO's end-of-cycle depth so the exporter can apply wormhole
/// backpressure without touching the other partition's state. All
/// accesses are relaxed: the phase barriers provide the ordering.
struct BoundarySlot {
    flit: AtomicU64,
    /// Rides along with a head flit: the packet payload changes owner
    /// when its head crosses the bisection.
    packet: Mutex<Option<Packet>>,
    occupancy: AtomicUsize,
}

impl BoundarySlot {
    fn new() -> Self {
        Self {
            flit: AtomicU64::new(0),
            packet: Mutex::new(None),
            occupancy: AtomicUsize::new(0),
        }
    }
}

/// The shared handoff fabric of a partitioned mesh: one [`BoundarySlot`]
/// per directed link crossing each row-band bisection.
///
/// Row-band partitioning means only NORTH/SOUTH links ever cross a
/// boundary, so boundary `b` (between region `b` and region `b + 1`)
/// owns `width` southbound plus `width` northbound slots.
pub struct MeshBoundary {
    width: usize,
    slots: Vec<BoundarySlot>,
}

impl MeshBoundary {
    fn new(width: usize, regions: usize) -> Self {
        let slots = (0..(regions - 1) * 2 * width)
            .map(|_| BoundarySlot::new())
            .collect();
        Self { width, slots }
    }

    /// Southbound slot `x` of boundary `b` (flit leaving region `b`'s
    /// last row through SOUTH, arriving in region `b + 1`'s first row).
    fn south(&self, b: usize, x: usize) -> &BoundarySlot {
        &self.slots[b * 2 * self.width + x]
    }

    /// Northbound slot `x` of boundary `b` (flit leaving region
    /// `b + 1`'s first row through NORTH).
    fn north(&self, b: usize, x: usize) -> &BoundarySlot {
        &self.slots[b * 2 * self.width + self.width + x]
    }
}

/// A region's handle onto the shared boundary fabric.
struct RegionBoundary {
    fabric: Arc<MeshBoundary>,
    /// This region's index in the row-band order.
    region: usize,
    /// Total regions in the partition.
    regions: usize,
}

/// One partition of a mesh: contiguous node, master-NI, slave-NI and
/// arena-link ranges (all `lo..hi`), produced by
/// [`XpipesNoc::partition_plan`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionSpec {
    /// Row-major mesh node range.
    pub nodes: (u16, u16),
    /// Master (and master-NI) index range.
    pub masters: (usize, usize),
    /// Slave (and slave-NI) index range.
    pub slaves: (usize, usize),
    /// `LinkArena` id range owned by the region.
    pub links: (u32, u32),
}

/// Aggregate NoC statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NocStats {
    /// Packets injected (requests + responses).
    pub packets: u64,
    /// Individual flit link traversals.
    pub flit_hops: u64,
}

/// A wormhole-switched 2D-mesh NoC with XY routing, in the spirit of
/// ×pipes.
///
/// Requests are packetised at the issuing master's network interface
/// (head flit + one address/command flit + one flit per write-data word),
/// routed dimension-ordered (X first) through input-buffered routers, and
/// reassembled at the target slave's NI, which then performs the OCP
/// transaction against the device and — for reads — sends a response
/// packet back. Links carry one flit per cycle; a hop costs two cycles
/// (switch + link); backpressure is by input-FIFO occupancy, so congested
/// packets stall in place like real wormhole flow control.
///
/// Posted writes unblock the master as soon as its NI accepts the
/// request, which is earlier than on the [`AmbaBus`](crate::AmbaBus) —
/// exactly the kind of architecture-dependent timing difference the
/// paper's reactive traffic generators must absorb.
pub struct XpipesNoc {
    name: String,
    cfg: XpipesConfig,
    map: Arc<AddressMap>,
    routers: Vec<Router>,
    master_nis: Vec<MasterNi>,
    slave_nis: Vec<SlaveNi>,
    attach: Vec<Attach>,
    packets: HashMap<u32, Packet>,
    next_pid: u32,
    stats: NocStats,
    packet_latency: Histogram,
    transactions: u64,
    decode_errors: u64,
    conflicts: u64,
    grant_wait: Histogram,
    links: Vec<LinkMetrics>,
    /// First mesh node owned by this instance: 0 for a whole mesh, the
    /// region's band start for a split-off partition. `routers` holds
    /// nodes `node_base .. node_base + routers.len()`.
    node_base: u16,
    /// Global index of `master_nis[0]` (0 for a whole mesh).
    master_base: usize,
    /// Global index of `slave_nis[0]` (0 for a whole mesh).
    slave_base: usize,
    /// Cross-partition handoff; present only on split-off regions.
    boundary: Option<RegionBoundary>,
    /// Local indices of routers currently holding flits — the
    /// O(active-router) worklist the per-cycle stages iterate instead of
    /// scanning every router, so idle routers in a big mesh cost nothing.
    active: Vec<u32>,
    /// Membership flags for `active`, indexed by local router.
    in_active: Vec<bool>,
    /// Event-driven NI worklists (see
    /// [`Interconnect::set_event_driven`]); `None` scans every NI each
    /// tick.
    event: Option<EventState>,
}

/// Which NI reads a given arena link — the routing table behind
/// [`Interconnect::wake_link`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NiTarget {
    None,
    Master(u32),
    Slave(u32),
}

/// Armed-NI worklists for event-driven operation: an NI is armed while
/// it has (or may have) per-cycle work, and every cross-component touch
/// that could give an idle NI work re-arms it via
/// [`Interconnect::wake_link`]. A disarmed NI's dense step is provably a
/// no-op, so skipping it is bit-identical to scanning it.
#[derive(Debug)]
struct EventState {
    /// Armed master-NI indices (local); sorted before each pass so the
    /// per-cycle side-effect order (packet-id minting, statistics)
    /// matches the dense ascending scan exactly.
    mni_armed: Vec<u32>,
    mni_in: Vec<bool>,
    /// Armed slave-NI indices (local), same discipline.
    sni_armed: Vec<u32>,
    sni_in: Vec<bool>,
    /// Arena link id → this instance's NI.
    targets: Vec<NiTarget>,
}

impl EventState {
    #[inline]
    fn arm_mni(&mut self, i: usize) {
        if !self.mni_in[i] {
            self.mni_in[i] = true;
            self.mni_armed.push(i as u32);
        }
    }

    #[inline]
    fn arm_sni(&mut self, i: usize) {
        if !self.sni_in[i] {
            self.sni_in[i] = true;
            self.sni_armed.push(i as u32);
        }
    }
}

impl XpipesNoc {
    /// Creates the NoC.
    ///
    /// Indexing conventions match [`AmbaBus::new`](crate::AmbaBus::new);
    /// `cfg` supplies the topology.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is inconsistent with the number of masters/slaves
    /// (see [`XpipesConfig`]).
    pub fn new(
        name: impl Into<String>,
        masters: Vec<SlavePort>,
        slaves: Vec<MasterPort>,
        map: Arc<AddressMap>,
        cfg: XpipesConfig,
    ) -> Self {
        cfg.validate(masters.len(), slaves.len());
        let mut attach = vec![Attach::None; cfg.nodes() as usize];
        let master_nis: Vec<MasterNi> = masters
            .into_iter()
            .zip(cfg.master_nodes.iter())
            .map(|(link, &node)| MasterNi {
                link,
                node,
                tx: VecDeque::new(),
            })
            .collect();
        let slave_nis: Vec<SlaveNi> = slaves
            .into_iter()
            .zip(cfg.slave_nodes.iter())
            .map(|(link, &node)| SlaveNi {
                link,
                node,
                pending: VecDeque::new(),
                busy: None,
                tx: VecDeque::new(),
            })
            .collect();
        let links = vec![LinkMetrics::default(); master_nis.len()];
        for (i, ni) in master_nis.iter().enumerate() {
            attach[ni.node as usize] = Attach::Master(i);
        }
        for (i, ni) in slave_nis.iter().enumerate() {
            attach[ni.node as usize] = Attach::Slave(i);
        }
        let routers: Vec<Router> = (0..cfg.nodes()).map(|_| Router::new()).collect();
        let nodes = routers.len();
        Self {
            name: name.into(),
            cfg,
            map,
            routers,
            master_nis,
            slave_nis,
            attach,
            packets: HashMap::new(),
            next_pid: 0,
            stats: NocStats::default(),
            packet_latency: Histogram::new("packet_latency_cycles"),
            transactions: 0,
            decode_errors: 0,
            conflicts: 0,
            grant_wait: Histogram::new("grant_wait_cycles"),
            links,
            node_base: 0,
            master_base: 0,
            slave_base: 0,
            boundary: None,
            active: Vec::with_capacity(nodes),
            in_active: vec![false; nodes],
            event: None,
        }
    }

    /// Accumulated NoC statistics.
    pub fn stats(&self) -> NocStats {
        self.stats
    }

    /// Packet latency histogram (injection of the head flit to delivery
    /// of the tail flit, in cycles).
    pub fn packet_latency(&self) -> &Histogram {
        &self.packet_latency
    }

    /// XY route: which output port a flit at `node` heading for
    /// `flit.dst` takes.
    fn route(&self, node: u16, dst: u16) -> usize {
        let w = self.cfg.width;
        let (x, y) = (node % w, node / w);
        let (dx, dy) = (dst % w, dst / w);
        if dx > x {
            EAST
        } else if dx < x {
            WEST
        } else if dy > y {
            SOUTH
        } else if dy < y {
            NORTH
        } else {
            LOCAL
        }
    }

    fn neighbor(&self, node: u16, port: usize) -> u16 {
        let w = self.cfg.width;
        match port {
            NORTH => node - w,
            SOUTH => node + w,
            EAST => node + 1,
            WEST => node - 1,
            _ => unreachable!("local port has no neighbor"),
        }
    }

    /// Packetises into `tx` in place, reusing the (empty) buffer's
    /// capacity — NI injection queues are on the per-cycle hot path and
    /// must not reallocate per packet.
    fn refill_flits(tx: &mut VecDeque<Flit>, pid: u32, len: u32, dst: u16) {
        debug_assert!(tx.is_empty());
        tx.extend((0..len).map(|i| Flit {
            pid,
            is_head: i == 0,
            is_tail: i == len - 1,
            dst,
        }));
    }

    /// Marks local router `r` as holding flits, enqueuing it on the
    /// active worklist if it was idle.
    #[inline]
    fn mark_active(&mut self, r: usize) {
        if !self.in_active[r] {
            self.in_active[r] = true;
            self.active.push(r as u32);
        }
    }

    /// Drops routers that drained this cycle from the active worklist.
    fn sweep_idle(&mut self) {
        let routers = &self.routers;
        let in_active = &mut self.in_active;
        self.active.retain(|&r| {
            let keep = !routers[r as usize].is_empty();
            if !keep {
                in_active[r as usize] = false;
            }
            keep
        });
    }

    /// Link stage: move output-register flits into downstream input
    /// FIFOs (or deliver locally), honouring backpressure.
    ///
    /// Iterates the active worklist, which may grow while iterating (a
    /// push activates the downstream router); a freshly activated router
    /// visited in the same pass has empty output registers, so the
    /// late visit is a no-op and results match a full scan exactly.
    fn link_stage(&mut self, net: &mut LinkArena, now: Cycle) {
        let mut idx = 0;
        while idx < self.active.len() {
            let r = self.active[idx] as usize;
            idx += 1;
            let node = self.node_base + r as u16;
            for p in 0..5 {
                let Some(flit) = self.routers[r].out_reg[p] else {
                    continue;
                };
                if p == LOCAL {
                    if self.deliver_local(net, node, flit, now) {
                        self.routers[r].out_reg[p] = None;
                    }
                    continue;
                }
                let nbr = self.neighbor(node, p) as usize;
                match (nbr).checked_sub(self.node_base as usize) {
                    Some(local) if local < self.routers.len() => {
                        let inp = opposite(p);
                        if self.routers[local].inputs[inp].len() < self.cfg.input_fifo_flits {
                            self.routers[local].inputs[inp].push_back(flit);
                            self.routers[r].out_reg[p] = None;
                            self.stats.flit_hops += 1;
                            self.mark_active(local);
                        }
                    }
                    _ => self.export_boundary(r, p, flit),
                }
            }
        }
    }

    /// Hands a flit leaving this region across the bisection.
    ///
    /// The slot's occupancy mirror carries the destination FIFO's
    /// end-of-previous-cycle depth — exactly the value a serial
    /// `link_stage` would have read, since downstream pops only happen in
    /// the (later) switch stage — so backpressure decisions stay
    /// bit-identical to serial execution.
    fn export_boundary(&mut self, r: usize, port: usize, flit: Flit) {
        let node = self.node_base + r as u16;
        let full = {
            let b = self
                .boundary
                .as_ref()
                .expect("flit crossed a region edge with no boundary fabric");
            let x = (node % self.cfg.width) as usize;
            let slot = match port {
                SOUTH => b.fabric.south(b.region, x),
                NORTH => b.fabric.north(b.region - 1, x),
                _ => unreachable!("row-band regions only split north/south links"),
            };
            slot.occupancy.load(Ordering::Relaxed) >= self.cfg.input_fifo_flits
        };
        if full {
            return;
        }
        // The head flit carries its packet across: payload ownership
        // follows the wormhole's leading edge.
        let packet = flit.is_head.then(|| {
            self.packets
                .remove(&flit.pid)
                .expect("exported head flit of unknown packet")
        });
        let b = self.boundary.as_ref().expect("checked above");
        let x = (node % self.cfg.width) as usize;
        let slot = match port {
            SOUTH => b.fabric.south(b.region, x),
            NORTH => b.fabric.north(b.region - 1, x),
            _ => unreachable!(),
        };
        if let Some(p) = packet {
            *slot.packet.lock().expect("boundary mutex poisoned") = Some(p);
        }
        slot.flit.store(encode_flit(flit), Ordering::Relaxed);
        self.routers[r].out_reg[port] = None;
        self.stats.flit_hops += 1;
    }

    /// Drains inbound boundary slots into this region's edge FIFOs.
    ///
    /// Runs at the start of the switch phase, after the barrier that
    /// ends every region's link phase: the flits land in their FIFOs
    /// before any switch stage runs, exactly as a serial `link_stage`
    /// pass would have left them. A push never overflows — the exporter
    /// already applied this FIFO's backpressure through the mirror.
    fn import_boundary(&mut self) {
        let Some(b) = self.boundary.as_ref() else {
            return;
        };
        let (fabric, region, regions) = (Arc::clone(&b.fabric), b.region, b.regions);
        let w = self.cfg.width as usize;
        for x in 0..w {
            // From the boundary above: southbound flits into our first row.
            if region > 0 {
                let slot = fabric.south(region - 1, x);
                let bits = slot.flit.swap(0, Ordering::Relaxed);
                if bits & FLIT_PRESENT != 0 {
                    let flit = decode_flit(bits);
                    if flit.is_head {
                        let packet = slot
                            .packet
                            .lock()
                            .expect("boundary mutex poisoned")
                            .take()
                            .expect("imported head flit without packet");
                        self.packets.insert(flit.pid, packet);
                    }
                    self.routers[x].inputs[NORTH].push_back(flit);
                    self.mark_active(x);
                }
            }
            // From the boundary below: northbound flits into our last row.
            if region + 1 < regions {
                let slot = fabric.north(region, x);
                let bits = slot.flit.swap(0, Ordering::Relaxed);
                if bits & FLIT_PRESENT != 0 {
                    let flit = decode_flit(bits);
                    if flit.is_head {
                        let packet = slot
                            .packet
                            .lock()
                            .expect("boundary mutex poisoned")
                            .take()
                            .expect("imported head flit without packet");
                        self.packets.insert(flit.pid, packet);
                    }
                    let local = self.routers.len() - w + x;
                    self.routers[local].inputs[SOUTH].push_back(flit);
                    self.mark_active(local);
                }
            }
        }
    }

    /// Publishes end-of-cycle occupancy of this region's edge FIFOs into
    /// the boundary mirrors the upstream exporters read next cycle.
    fn publish_boundary_occupancy(&self) {
        let Some(b) = self.boundary.as_ref() else {
            return;
        };
        let w = self.cfg.width as usize;
        for x in 0..w {
            if b.region > 0 {
                // Southbound flits arrive on our first row's NORTH input.
                let depth = self.routers[x].inputs[NORTH].len();
                b.fabric
                    .south(b.region - 1, x)
                    .occupancy
                    .store(depth, Ordering::Relaxed);
            }
            if b.region + 1 < b.regions {
                // Northbound flits arrive on our last row's SOUTH input.
                let local = self.routers.len() - w + x;
                let depth = self.routers[local].inputs[SOUTH].len();
                b.fabric
                    .north(b.region, x)
                    .occupancy
                    .store(depth, Ordering::Relaxed);
            }
        }
    }

    /// Delivers a flit to the NI on `node`. Returns false on
    /// backpressure.
    fn deliver_local(&mut self, net: &mut LinkArena, node: u16, flit: Flit, now: Cycle) -> bool {
        match self.attach[node as usize] {
            Attach::None => panic!("flit routed to node {node} which has no NI"),
            Attach::Master(i) => {
                // Master NIs always sink response flits.
                if flit.is_tail {
                    let packet = self
                        .packets
                        .remove(&flit.pid)
                        .expect("tail of unknown packet");
                    self.packet_latency.record(now - packet.injected_at);
                    let Payload::Resp { resp, dst_master } = packet.payload else {
                        panic!("request packet delivered to a master NI")
                    };
                    debug_assert_eq!(dst_master, i);
                    self.master_nis[i - self.master_base]
                        .link
                        .push_response(net, resp, now);
                }
                true
            }
            Attach::Slave(i) => {
                // Bounded reassembly: refuse new flits while two complete
                // packets already wait, creating wormhole backpressure.
                let local = i - self.slave_base;
                if self.slave_nis[local].pending.len() >= 2 {
                    return false;
                }
                if flit.is_tail {
                    self.slave_nis[local].pending.push_back(flit.pid);
                    // The link stage runs before the NI stage, so the NI
                    // can serve this packet in the same cycle it would
                    // under a dense scan.
                    if let Some(ev) = &mut self.event {
                        ev.arm_sni(local);
                    }
                }
                true
            }
        }
    }

    /// Switch stage: move one flit per input from input FIFOs into output
    /// registers, wormhole style.
    ///
    /// Route computation runs once per input head: `wants[p]` is the
    /// bitmask of inputs whose head flit routes to output `p`. Outputs
    /// are then resolved independently, which is exact because a head
    /// can only leave through the output it routes to, and an owning
    /// input's front is never a head (a packet's flits reach an input
    /// contiguously), so no input is ever claimed by two outputs.
    fn switch_stage(&mut self) {
        // Switching moves flits within one router, so the worklist
        // cannot grow mid-pass.
        for idx in 0..self.active.len() {
            let r = self.active[idx] as usize;
            let node = self.node_base + r as u16;
            let mut wants = [0u8; 5];
            for inp in 0..5 {
                if let Some(f) = self.routers[r].inputs[inp].front() {
                    if f.is_head {
                        wants[self.route(node, f.dst)] |= 1 << inp;
                    }
                }
            }
            let router = &mut self.routers[r];
            for (p, &mask) in wants.iter().enumerate() {
                // Every head that does not advance this cycle is a
                // contention event (blocked by the output register, an
                // owning packet, or a lost arbitration round).
                let wanters = u64::from(mask.count_ones());
                if router.out_reg[p].is_some() {
                    self.conflicts += wanters;
                    continue;
                }
                // Continue an owned packet first.
                if let Some(owner) = router.out_owner[p] {
                    self.conflicts += wanters;
                    if let Some(flit) = router.inputs[owner].pop_front() {
                        debug_assert!(!flit.is_head, "owning input fronted by a head");
                        router.out_reg[p] = Some(flit);
                        if flit.is_tail {
                            router.out_owner[p] = None;
                        }
                    }
                    continue;
                }
                if mask == 0 {
                    continue;
                }
                // Otherwise grant the first requesting input at or after
                // the round-robin pointer.
                self.conflicts += wanters - 1;
                let rotated = (u16::from(mask) | u16::from(mask) << 5) >> router.rr[p];
                let inp = (router.rr[p] + rotated.trailing_zeros() as usize) % 5;
                let flit = router.inputs[inp].pop_front().expect("head checked");
                router.out_reg[p] = Some(flit);
                if !flit.is_tail {
                    router.out_owner[p] = Some(inp);
                }
                router.rr[p] = (inp + 1) % 5;
            }
        }
    }

    /// NI stage: accept fresh requests, feed injection FIFOs, talk to
    /// devices.
    ///
    /// In event mode only armed NIs are stepped; the disarm conditions
    /// guarantee a skipped NI's step would have been a no-op, and the
    /// armed lists are sorted so side effects (packet-id minting,
    /// statistics) land in the same ascending-index order as the dense
    /// scan.
    fn ni_stage(&mut self, net: &mut LinkArena, now: Cycle) {
        if let Some(mut ev) = self.event.take() {
            ev.mni_armed.sort_unstable();
            for k in 0..ev.mni_armed.len() {
                self.mni_step(ev.mni_armed[k] as usize, net, now);
            }
            {
                let mni_in = &mut ev.mni_in;
                let nis = &self.master_nis;
                ev.mni_armed.retain(|&i| {
                    let ni = &nis[i as usize];
                    // Keep while there are flits to inject or a request
                    // (even a future-visible one) to accept; anything
                    // that gives an idle master NI new work asserts a
                    // request, which re-arms it via `wake_link`.
                    let keep = !ni.tx.is_empty() || ni.link.request_visible_at(net).is_some();
                    if !keep {
                        mni_in[i as usize] = false;
                    }
                    keep
                });
            }
            ev.sni_armed.sort_unstable();
            for k in 0..ev.sni_armed.len() {
                self.sni_step(ev.sni_armed[k] as usize, net, now);
            }
            {
                let sni_in = &mut ev.sni_in;
                let nis = &self.slave_nis;
                ev.sni_armed.retain(|&i| {
                    let ni = &nis[i as usize];
                    // Keep while injecting or holding reassembled
                    // packets. A busy-waiting NI (`busy` set, queues
                    // empty) polls `take_response`/`take_accept`, and
                    // both return `None` until the slave writes the
                    // link — which re-arms it via `wake_link` — so
                    // disarming it skips only no-op polls.
                    let keep = !ni.tx.is_empty() || !ni.pending.is_empty();
                    if !keep {
                        sni_in[i as usize] = false;
                    }
                    keep
                });
            }
            self.event = Some(ev);
            return;
        }
        // Master NIs: accept a new request once the previous packet fully
        // left the NI.
        for i in 0..self.master_nis.len() {
            self.mni_step(i, net, now);
        }
        // Slave NIs: service reassembled requests through the device
        // link; packetise read responses.
        for i in 0..self.slave_nis.len() {
            self.sni_step(i, net, now);
        }
    }

    /// One master NI's per-cycle work: accept a fresh request once the
    /// previous packet fully left the NI, inject at most one flit.
    fn mni_step(&mut self, i: usize, net: &mut LinkArena, now: Cycle) {
        // Accept a fresh request once the previous packet left.
        if self.master_nis[i].tx.is_empty() {
            if let Some((addr, _, _)) = self.master_nis[i].link.peek_meta(net, now) {
                match self.map.slave_for(addr) {
                    None => {
                        let req = self.master_nis[i]
                            .link
                            .accept_request(net, now)
                            .expect("peeked request is still there");
                        self.decode_errors += 1;
                        if req.cmd.expects_response() {
                            self.master_nis[i].link.push_response(
                                net,
                                OcpResponse::error(req.tag),
                                now,
                            );
                        }
                    }
                    Some(slave) => {
                        let stall = now
                            - self.master_nis[i]
                                .link
                                .request_visible_at(net)
                                .expect("peeked request is visible");
                        let req = self.master_nis[i]
                            .link
                            .accept_request(net, now)
                            .expect("peeked request is still there");
                        let global = self.master_base + i;
                        self.transactions += 1;
                        self.grant_wait.record(stall);
                        self.links[global].grants += 1;
                        self.links[global].stall_cycles += stall;
                        // The destination may live in another region,
                        // so resolve its node from the full config.
                        let dst = self.cfg.slave_nodes[slave.0 as usize];
                        let len = 2 + req.data.len() as u32;
                        self.links[global].busy_cycles += u64::from(len);
                        let pid = self.next_pid;
                        self.next_pid += 1;
                        self.packets.insert(
                            pid,
                            Packet {
                                payload: Payload::Req {
                                    req,
                                    src_master: global,
                                },
                                injected_at: now,
                            },
                        );
                        Self::refill_flits(&mut self.master_nis[i].tx, pid, len, dst);
                        self.stats.packets += 1;
                    }
                }
            }
        }
        // Inject at most one flit per cycle.
        let node = self.master_nis[i].node as usize - self.node_base as usize;
        if !self.master_nis[i].tx.is_empty()
            && self.routers[node].inputs[LOCAL].len() < self.cfg.input_fifo_flits
        {
            let flit = self.master_nis[i].tx.pop_front().expect("non-empty");
            self.routers[node].inputs[LOCAL].push_back(flit);
            self.mark_active(node);
        }
    }

    /// One slave NI's per-cycle work: complete the in-flight device
    /// transaction, start the next reassembled request, inject at most
    /// one response flit.
    fn sni_step(&mut self, i: usize, net: &mut LinkArena, now: Cycle) {
        // Completion?
        if let Some((src_master, expects)) = self.slave_nis[i].busy {
            if expects {
                if let Some(resp) = self.slave_nis[i].link.take_response(net, now) {
                    // `src_master` is a global index; its NI may live
                    // in another region.
                    let dst = self.cfg.master_nodes[src_master];
                    let len = 1 + resp.data.len() as u32;
                    self.links[src_master].busy_cycles += u64::from(len);
                    let pid = self.next_pid;
                    self.next_pid += 1;
                    self.packets.insert(
                        pid,
                        Packet {
                            payload: Payload::Resp {
                                resp,
                                dst_master: src_master,
                            },
                            injected_at: now,
                        },
                    );
                    Self::refill_flits(&mut self.slave_nis[i].tx, pid, len, dst);
                    self.stats.packets += 1;
                    self.slave_nis[i].busy = None;
                }
            } else if self.slave_nis[i].link.take_accept(net, now).is_some() {
                self.slave_nis[i].busy = None;
            }
        }
        // Start the next pending request once the link and the
        // response path are free.
        if self.slave_nis[i].busy.is_none()
            && self.slave_nis[i].tx.is_empty()
            && !self.slave_nis[i].link.request_pending(net)
        {
            if let Some(pid) = self.slave_nis[i].pending.pop_front() {
                let packet = self.packets.remove(&pid).expect("pending packet exists");
                self.packet_latency
                    .record(now.saturating_sub(packet.injected_at));
                let Payload::Req { req, src_master } = packet.payload else {
                    panic!("response packet delivered to a slave NI")
                };
                let expects = req.cmd.expects_response();
                self.slave_nis[i].link.forward_request(net, req, now);
                self.slave_nis[i].busy = Some((src_master, expects));
            }
        }
        // Inject at most one response flit per cycle.
        let node = self.slave_nis[i].node as usize - self.node_base as usize;
        if !self.slave_nis[i].tx.is_empty()
            && self.routers[node].inputs[LOCAL].len() < self.cfg.input_fifo_flits
        {
            let flit = self.slave_nis[i].tx.pop_front().expect("non-empty");
            self.routers[node].inputs[LOCAL].push_back(flit);
            self.mark_active(node);
        }
    }

    /// Phase A of a partitioned cycle: the link stage, with boundary
    /// crossings exported into the shared handoff slots. On a whole
    /// (unsplit) mesh this is exactly the serial link stage.
    pub fn phase_link(&mut self, net: &mut LinkArena, now: Cycle) {
        self.link_stage(net, now);
    }

    /// Phase B of a partitioned cycle: import boundary flits, then run
    /// the switch and NI stages and publish end-of-cycle occupancy
    /// mirrors. Running [`XpipesNoc::phase_link`] then this method on a
    /// whole mesh is exactly one serial tick.
    pub fn phase_switch_ni(&mut self, net: &mut LinkArena, now: Cycle) {
        self.import_boundary();
        self.switch_stage();
        self.ni_stage(net, now);
        self.sweep_idle();
        self.publish_boundary_occupancy();
    }

    /// Plans a row-band partition of this mesh into at most `threads`
    /// regions of contiguous rows (balanced by row count).
    ///
    /// Returns `None` when the mesh cannot be partitioned: fewer than
    /// two usable bands, or an NI layout other than the canonical
    /// row-major one (masters on nodes `0..n`, slaves directly after)
    /// on which node, NI and link ranges all stay contiguous.
    pub fn partition_plan(&self, threads: usize) -> Option<Vec<RegionSpec>> {
        let (w, h) = (self.cfg.width as usize, self.cfg.height as usize);
        let p = threads.min(h);
        if p < 2 {
            return None;
        }
        let (n, s) = (self.master_nis.len(), self.slave_nis.len());
        let canonical = self
            .cfg
            .master_nodes
            .iter()
            .enumerate()
            .all(|(i, &nd)| nd as usize == i)
            && self
                .cfg
                .slave_nodes
                .iter()
                .enumerate()
                .all(|(i, &nd)| nd as usize == n + i);
        if !canonical {
            return None;
        }
        let (band, extra) = (h / p, h % p);
        let mut specs = Vec::with_capacity(p);
        let mut row = 0usize;
        let mut prev_link_hi: Option<u32> = None;
        for k in 0..p {
            let rows = band + usize::from(k < extra);
            let (lo, hi) = (row * w, (row + rows) * w);
            row += rows;
            let masters = (lo.min(n), hi.min(n));
            let slaves = (lo.max(n).min(n + s) - n, hi.max(n).min(n + s) - n);
            // The region's arena range spans its NIs' link ids; ranges
            // must be contiguous and ascending for `LinkArena::split_off`.
            let mut ids: Vec<u32> = (masters.0..masters.1)
                .map(|i| self.master_nis[i].link.id().index() as u32)
                .chain((slaves.0..slaves.1).map(|i| self.slave_nis[i].link.id().index() as u32))
                .collect();
            ids.sort_unstable();
            let links = match (ids.first(), ids.last()) {
                (Some(&first), Some(&last)) => {
                    if (last - first) as usize + 1 != ids.len() {
                        return None; // NI links are not a contiguous range
                    }
                    (first, last + 1)
                }
                // A band of unattached nodes owns no links.
                _ => {
                    let at = prev_link_hi.unwrap_or(0);
                    (at, at)
                }
            };
            if let Some(prev) = prev_link_hi {
                if links.0 != prev {
                    return None; // regions' link ranges must tile the arena
                }
            } else if links.0 != 0 {
                return None;
            }
            prev_link_hi = Some(links.1);
            specs.push(RegionSpec {
                nodes: (lo as u16, hi as u16),
                masters,
                slaves,
                links,
            });
        }
        Some(specs)
    }

    /// Splits this mesh into per-region instances per `specs`, moving
    /// each band's routers and NIs out of `self`. The returned regions
    /// share a fresh [`MeshBoundary`]; ticking region `k` with the
    /// two-phase protocol advances exactly the state a serial tick would
    /// advance for its band. Reassemble with [`XpipesNoc::absorb`].
    ///
    /// # Panics
    ///
    /// Panics if called on a region, on a mesh with traffic in flight,
    /// or with specs that do not tile this mesh.
    pub fn split(&mut self, specs: &[RegionSpec]) -> Vec<XpipesNoc> {
        assert!(self.boundary.is_none(), "cannot split a region");
        assert!(
            self.packets.is_empty() && self.routers.iter().all(Router::is_empty),
            "split requires a drained mesh"
        );
        assert_eq!(
            specs.last().map(|s| s.nodes.1),
            Some(self.cfg.nodes()),
            "specs must cover the whole mesh"
        );
        let fabric = Arc::new(MeshBoundary::new(self.cfg.width as usize, specs.len()));
        let mut routers = std::mem::take(&mut self.routers).into_iter();
        let mut master_nis = std::mem::take(&mut self.master_nis).into_iter();
        let mut slave_nis = std::mem::take(&mut self.slave_nis).into_iter();
        let total_masters = self.links.len();
        specs
            .iter()
            .enumerate()
            .map(|(k, spec)| {
                let nodes = (spec.nodes.1 - spec.nodes.0) as usize;
                XpipesNoc {
                    name: format!("{}#r{k}", self.name),
                    cfg: self.cfg.clone(),
                    map: Arc::clone(&self.map),
                    routers: routers.by_ref().take(nodes).collect(),
                    master_nis: master_nis
                        .by_ref()
                        .take(spec.masters.1 - spec.masters.0)
                        .collect(),
                    slave_nis: slave_nis
                        .by_ref()
                        .take(spec.slaves.1 - spec.slaves.0)
                        .collect(),
                    attach: self.attach.clone(),
                    packets: HashMap::new(),
                    // Regions mint packet ids in disjoint tagged spaces;
                    // ids are internal keys only, so tagging cannot leak
                    // into any deterministic output.
                    next_pid: (k as u32 + 1) << 28,
                    stats: NocStats::default(),
                    packet_latency: Histogram::new("packet_latency_cycles"),
                    transactions: 0,
                    decode_errors: 0,
                    conflicts: 0,
                    grant_wait: Histogram::new("grant_wait_cycles"),
                    links: vec![LinkMetrics::default(); total_masters],
                    node_base: spec.nodes.0,
                    master_base: spec.masters.0,
                    slave_base: spec.slaves.0,
                    boundary: Some(RegionBoundary {
                        fabric: Arc::clone(&fabric),
                        region: k,
                        regions: specs.len(),
                    }),
                    active: Vec::with_capacity(nodes),
                    in_active: vec![false; nodes],
                    event: None,
                }
            })
            .collect()
    }

    /// Reassembles regions produced by [`XpipesNoc::split`] (in the same
    /// order), summing every counter and histogram — each is additive
    /// over the disjoint events the regions observed, so the merged
    /// statistics are bit-identical to a serial run's.
    pub fn absorb(&mut self, regions: Vec<XpipesNoc>) {
        for region in regions {
            self.routers.extend(region.routers);
            self.master_nis.extend(region.master_nis);
            self.slave_nis.extend(region.slave_nis);
            self.packets.extend(region.packets);
            self.stats.packets += region.stats.packets;
            self.stats.flit_hops += region.stats.flit_hops;
            self.packet_latency.merge(&region.packet_latency);
            self.transactions += region.transactions;
            self.decode_errors += region.decode_errors;
            self.conflicts += region.conflicts;
            self.grant_wait.merge(&region.grant_wait);
            for (l, r) in self.links.iter_mut().zip(region.links.iter()) {
                l.grants += r.grants;
                l.stall_cycles += r.stall_cycles;
                l.busy_cycles += r.busy_cycles;
            }
        }
        debug_assert_eq!(self.routers.len(), self.cfg.nodes() as usize);
        self.in_active = vec![false; self.routers.len()];
        self.active = (0..self.routers.len())
            .filter(|&r| !self.routers[r].is_empty())
            .map(|r| r as u32)
            .collect();
        for &r in &self.active {
            self.in_active[r as usize] = true;
        }
    }
}

impl Component<LinkArena> for XpipesNoc {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, now: Cycle, net: &mut LinkArena) {
        self.phase_link(net, now);
        self.phase_switch_ni(net, now);
    }

    fn is_idle(&self, net: &LinkArena) -> bool {
        self.packets.is_empty()
            && self.active.is_empty()
            && self
                .master_nis
                .iter()
                .all(|ni| ni.tx.is_empty() && ni.link.is_quiet(net))
            && self.slave_nis.iter().all(|ni| {
                ni.tx.is_empty()
                    && ni.pending.is_empty()
                    && ni.busy.is_none()
                    && ni.link.is_quiet(net)
            })
    }

    // Ticks are complete no-ops while the network is drained, so the
    // default no-op `skip` is exact.
    fn next_activity(&self, now: Cycle, net: &LinkArena) -> Activity {
        // Any flit, pending delivery, or outstanding slave transaction
        // means the pipeline advances every cycle.
        let in_flight = !self.packets.is_empty()
            || !self.active.is_empty()
            || self.master_nis.iter().any(|ni| !ni.tx.is_empty())
            || self
                .slave_nis
                .iter()
                .any(|ni| !ni.tx.is_empty() || !ni.pending.is_empty() || ni.busy.is_some());
        if in_flight {
            return Activity::Busy;
        }
        let mut wake: Option<Cycle> = None;
        for ni in &self.master_nis {
            match ni.link.request_visible_at(net) {
                Some(at) if at <= now => return Activity::Busy,
                Some(at) => wake = Some(wake.map_or(at, |w| w.min(at))),
                None => {}
            }
        }
        match wake {
            Some(at) => Activity::IdleUntil(at),
            None if self.is_idle(net) => Activity::Drained,
            None => Activity::Busy,
        }
    }
}

impl Interconnect for XpipesNoc {
    fn kind(&self) -> InterconnectKind {
        InterconnectKind::Xpipes
    }

    fn transactions(&self) -> u64 {
        self.transactions
    }

    fn decode_errors(&self) -> u64 {
        self.decode_errors
    }

    fn latency_summary(&self) -> Option<(f64, u64)> {
        Some((self.packet_latency.mean()?, self.packet_latency.max()?))
    }

    // Flit hops are the mesh's unit of link occupancy: each hop keeps
    // one link busy for one cycle.
    fn utilization_cycles(&self) -> u64 {
        self.stats.flit_hops
    }

    fn contention(&self) -> Contention {
        Contention {
            conflicts: self.conflicts,
            grant_wait: self.grant_wait.clone(),
            links: self.links.clone(),
        }
    }

    fn as_xpipes_mut(&mut self) -> Option<&mut XpipesNoc> {
        Some(self)
    }

    fn set_event_driven(&mut self, on: bool) {
        if !on {
            self.event = None;
            return;
        }
        let n_links = self
            .master_nis
            .iter()
            .map(|ni| ni.link.id().index())
            .chain(self.slave_nis.iter().map(|ni| ni.link.id().index()))
            .max()
            .map_or(0, |m| m + 1);
        let mut ev = EventState {
            mni_armed: Vec::with_capacity(self.master_nis.len()),
            mni_in: vec![false; self.master_nis.len()],
            sni_armed: Vec::with_capacity(self.slave_nis.len()),
            sni_in: vec![false; self.slave_nis.len()],
            targets: vec![NiTarget::None; n_links],
        };
        for (i, ni) in self.master_nis.iter().enumerate() {
            ev.targets[ni.link.id().index()] = NiTarget::Master(i as u32);
        }
        for (i, ni) in self.slave_nis.iter().enumerate() {
            ev.targets[ni.link.id().index()] = NiTarget::Slave(i as u32);
        }
        // Conservative seed: every NI starts armed and proves itself
        // idle through the disarm sweep.
        for i in 0..ev.mni_in.len() {
            ev.arm_mni(i);
        }
        for i in 0..ev.sni_in.len() {
            ev.arm_sni(i);
        }
        self.event = Some(ev);
    }

    fn wake_link(&mut self, link: LinkId) {
        if let Some(ev) = &mut self.event {
            match ev
                .targets
                .get(link.index())
                .copied()
                .unwrap_or(NiTarget::None)
            {
                NiTarget::Master(i) => ev.arm_mni(i as usize),
                NiTarget::Slave(i) => ev.arm_sni(i as usize),
                NiTarget::None => {}
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)]
mod tests {
    use super::*;
    use ntg_mem::{MemoryDevice, RegionKind};
    use ntg_ocp::{MasterId, OcpRequest, OcpStatus, SlaveId};

    struct Rig {
        links: LinkArena,
        noc: XpipesNoc,
        mems: Vec<MemoryDevice>,
        cpus: Vec<MasterPort>,
    }

    fn rig(n_masters: usize) -> Rig {
        let mut map = AddressMap::new();
        map.add("m0", 0x1000, 0x1000, SlaveId(0), RegionKind::SharedMemory)
            .unwrap();
        map.add("m1", 0x2000, 0x1000, SlaveId(1), RegionKind::SharedMemory)
            .unwrap();
        let mut links = LinkArena::new();
        let mut cpus = Vec::new();
        let mut net_masters = Vec::new();
        for i in 0..n_masters {
            let (m, s) = links.channel(format!("cpu{i}"), MasterId(i as u16));
            cpus.push(m);
            net_masters.push(s);
        }
        let mut mems = Vec::new();
        let mut net_slaves = Vec::new();
        for (i, base) in [(0u16, 0x1000u32), (1, 0x2000)] {
            let (m, s) = links.channel(format!("slave{i}"), MasterId(0));
            net_slaves.push(m);
            mems.push(MemoryDevice::new(format!("mem{i}"), base, 0x1000, s));
        }
        let cfg = XpipesConfig::auto(n_masters, 2);
        let noc = XpipesNoc::new("xpipes", net_masters, net_slaves, Arc::new(map), cfg);
        Rig {
            links,
            noc,
            mems,
            cpus,
        }
    }

    fn step(r: &mut Rig, now: Cycle) {
        r.noc.tick(now, &mut r.links);
        for m in &mut r.mems {
            m.tick(now, &mut r.links);
        }
    }

    #[test]
    fn auto_config_builds_a_valid_mesh() {
        let cfg = XpipesConfig::auto(12, 14);
        assert!(u32::from(cfg.nodes()) >= 26);
        assert_eq!(cfg.master_nodes.len(), 12);
        assert_eq!(cfg.slave_nodes.len(), 14);
        let cfg = XpipesConfig::auto(1, 2);
        assert_eq!((cfg.width, cfg.height), (2, 2));
        let cfg = XpipesConfig::auto(5, 4);
        assert_eq!((cfg.width, cfg.height), (3, 3), "9 NIs need a 3x3 mesh");
    }

    #[test]
    fn read_round_trips_through_the_mesh() {
        let mut r = rig(1);
        r.mems[0].poke(0x1010, 4242);
        r.cpus[0].assert_request(&mut r.links, OcpRequest::read(0x1010), 0);
        for now in 0..100 {
            step(&mut r, now);
            if let Some(resp) = r.cpus[0].take_response(&mut r.links, now) {
                assert_eq!(resp.data, vec![4242]);
                assert!(
                    now > 6,
                    "NoC must be slower than the bus for one hop ({now})"
                );
                assert!(r.noc.stats().packets == 2, "request + response");
                return;
            }
        }
        panic!("no response");
    }

    #[test]
    fn posted_write_unblocks_at_the_ni() {
        let mut r = rig(1);
        r.cpus[0].assert_request(&mut r.links, OcpRequest::write(0x2000, 31), 0);
        let mut accepted_at = None;
        for now in 0..100 {
            step(&mut r, now);
            if accepted_at.is_none() && r.cpus[0].take_accept(&mut r.links, now).is_some() {
                accepted_at = Some(now);
            }
        }
        assert_eq!(accepted_at, Some(2), "NI accepts before network transit");
        assert_eq!(r.mems[1].peek(0x2000), 31, "write still lands remotely");
    }

    #[test]
    fn burst_read_reassembles_whole_line() {
        let mut r = rig(1);
        r.mems[0].load_words(0x1000, &[5, 6, 7, 8]);
        r.cpus[0].assert_request(&mut r.links, OcpRequest::burst_read(0x1000, 4), 0);
        for now in 0..200 {
            step(&mut r, now);
            if let Some(resp) = r.cpus[0].take_response(&mut r.links, now) {
                assert_eq!(resp.data, vec![5, 6, 7, 8]);
                return;
            }
        }
        panic!("no response");
    }

    #[test]
    fn two_masters_different_slaves_overlap() {
        let mut r = rig(2);
        r.cpus[0].assert_request(&mut r.links, OcpRequest::read(0x1000), 0);
        r.cpus[1].assert_request(&mut r.links, OcpRequest::read(0x2000), 0);
        let mut done = [None, None];
        for now in 0..200 {
            step(&mut r, now);
            for c in 0..2 {
                if done[c].is_none() && r.cpus[c].take_response(&mut r.links, now).is_some() {
                    done[c] = Some(now);
                }
            }
        }
        let (a, b) = (done[0].unwrap(), done[1].unwrap());
        // With per-slave paths the two reads overlap almost fully; they
        // must not be serialised end-to-end.
        assert!(b < a + 6, "reads should overlap: {a} vs {b}");
    }

    #[test]
    fn unmapped_read_errors_without_touching_the_mesh() {
        let mut r = rig(1);
        r.cpus[0].assert_request(&mut r.links, OcpRequest::read(0xDEAD_0000), 0);
        for now in 0..20 {
            step(&mut r, now);
            if let Some(resp) = r.cpus[0].take_response(&mut r.links, now) {
                assert_eq!(resp.status, OcpStatus::Error);
                assert_eq!(r.noc.stats().packets, 0);
                return;
            }
        }
        panic!("no response");
    }

    #[test]
    fn heavy_same_slave_traffic_all_completes() {
        let mut r = rig(2);
        let mut remaining = [10u32, 10];
        let mut completions = 0u32;
        for now in 0..5_000 {
            for c in 0..2 {
                if r.cpus[c].take_response(&mut r.links, now).is_some() {
                    completions += 1;
                }
                if !r.cpus[c].request_pending(&r.links) && remaining[c] > 0 {
                    r.cpus[c].assert_request(
                        &mut r.links,
                        OcpRequest::read(0x1000 + c as u32 * 8),
                        now,
                    );
                    remaining[c] -= 1;
                }
            }
            step(&mut r, now);
        }
        assert_eq!(completions, 20, "wormhole contention must not deadlock");
        assert!(r.noc.is_idle(&r.links));
    }

    #[test]
    fn write_data_flits_lengthen_packets() {
        let mut r = rig(1);
        r.cpus[0].assert_request(
            &mut r.links,
            OcpRequest::burst_write(0x1000, vec![1, 2, 3, 4]),
            0,
        );
        for now in 0..200 {
            step(&mut r, now);
            r.cpus[0].take_accept(&mut r.links, now);
        }
        assert_eq!(r.mems[0].peek(0x100C), 4);
        // 6 flits request (head + cmd + 4 data), no response packet.
        assert_eq!(r.noc.stats().packets, 1);
        assert!(r.noc.is_idle(&r.links));
    }

    /// A mesh with no NIs attached: enough to query its topology.
    fn bare_mesh(width: u16, height: u16) -> XpipesNoc {
        let cfg = XpipesConfig {
            width,
            height,
            master_nodes: vec![],
            slave_nodes: vec![],
            input_fifo_flits: 4,
        };
        XpipesNoc::new("bare", vec![], vec![], Arc::new(AddressMap::new()), cfg)
    }

    #[test]
    fn xy_routing_goes_x_first() {
        for (w, h) in [(3u16, 3u16), (4, 2)] {
            let noc = bare_mesh(w, h);
            let xy = |n: u16| (i32::from(n % w), i32::from(n / w));
            for src in 0..w * h {
                for dst in 0..w * h {
                    let ((sx, sy), (dx, dy)) = (xy(src), xy(dst));
                    // X hops first, then Y hops, then the local port.
                    let x_port = if dx > sx { EAST } else { WEST };
                    let y_port = if dy > sy { SOUTH } else { NORTH };
                    let mut expected = vec![x_port; dx.abs_diff(sx) as usize];
                    expected.extend(vec![y_port; dy.abs_diff(sy) as usize]);
                    expected.push(LOCAL);
                    let (mut node, mut taken) = (src, Vec::new());
                    loop {
                        let p = noc.route(node, dst);
                        taken.push(p);
                        if p == LOCAL {
                            break;
                        }
                        node = noc.neighbor(node, p);
                    }
                    assert_eq!(taken, expected, "{w}x{h}: {src} -> {dst}");
                    assert_eq!(node, dst, "{w}x{h}: {src} -> {dst} ends at its target");
                }
            }
            for n in 0..w * h {
                let (x, y) = xy(n);
                for (p, inside) in [
                    (NORTH, y > 0),
                    (SOUTH, y + 1 < i32::from(h)),
                    (EAST, x + 1 < i32::from(w)),
                    (WEST, x > 0),
                ] {
                    if inside {
                        let back = noc.neighbor(noc.neighbor(n, p), opposite(p));
                        assert_eq!(back, n, "{w}x{h}: node {n} port {p}");
                    }
                }
            }
        }
    }

    #[test]
    fn single_node_mesh_is_rejected_with_two_nis() {
        let cfg = XpipesConfig::auto(0, 1);
        assert_eq!(cfg.nodes(), 1);
        // 1 master + 1 slave cannot share node 0.
        let bad = XpipesConfig {
            width: 1,
            height: 1,
            master_nodes: vec![0],
            slave_nodes: vec![0],
            input_fifo_flits: 2,
        };
        let map = Arc::new(AddressMap::new());
        let mut links = LinkArena::new();
        let (_, s) = links.channel("cpu", MasterId(0));
        let (m, _) = links.channel("slave", MasterId(0));
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            XpipesNoc::new("bad", vec![s], vec![m], map, bad)
        }));
        assert!(r.is_err(), "two NIs on one node must be rejected");
    }

    #[test]
    fn min_fifo_depth_still_delivers() {
        // FIFO depth 1: maximal backpressure, still no deadlock.
        let mut mapm = AddressMap::new();
        mapm.add("m0", 0x1000, 0x1000, SlaveId(0), RegionKind::SharedMemory)
            .unwrap();
        mapm.add("m1", 0x2000, 0x1000, SlaveId(1), RegionKind::SharedMemory)
            .unwrap();
        let mut links = LinkArena::new();
        let (cpu, s0) = links.channel("cpu0", MasterId(0));
        let (m0, sl0) = links.channel("sl0", MasterId(0));
        let (m1, sl1) = links.channel("sl1", MasterId(0));
        let mut mem0 = MemoryDevice::new("mem0", 0x1000, 0x1000, sl0);
        let mut mem1 = MemoryDevice::new("mem1", 0x2000, 0x1000, sl1);
        let mut cfg = XpipesConfig::auto(1, 2);
        cfg.input_fifo_flits = 1;
        let mut noc = XpipesNoc::new("tight", vec![s0], vec![m0, m1], Arc::new(mapm), cfg);
        mem0.poke(0x1004, 99);
        cpu.assert_request(&mut links, OcpRequest::burst_read(0x1000, 4), 0);
        for now in 0..500 {
            noc.tick(now, &mut links);
            mem0.tick(now, &mut links);
            mem1.tick(now, &mut links);
            if let Some(resp) = cpu.take_response(&mut links, now) {
                assert_eq!(resp.data[1], 99);
                return;
            }
        }
        panic!("depth-1 FIFOs must still deliver");
    }

    #[test]
    fn mesh_contention_is_observed_per_master() {
        // Two long write packets race for the same slave: the second
        // head must lose arbitration somewhere along the shared path.
        let mut r = rig(2);
        r.cpus[0].assert_request(
            &mut r.links,
            OcpRequest::burst_write(0x1000, vec![1, 2, 3, 4]),
            0,
        );
        r.cpus[1].assert_request(
            &mut r.links,
            OcpRequest::burst_write(0x1010, vec![5, 6, 7, 8]),
            0,
        );
        for now in 0..300 {
            step(&mut r, now);
            r.cpus[0].take_accept(&mut r.links, now);
            r.cpus[1].take_accept(&mut r.links, now);
        }
        assert!(r.noc.is_idle(&r.links));
        let c = r.noc.contention();
        assert_eq!(c.links[0].grants, 1);
        assert_eq!(c.links[1].grants, 1);
        // 6 flits per write packet (head + cmd + 4 data), no response.
        assert_eq!(c.links[0].busy_cycles, 6);
        assert_eq!(c.links[1].busy_cycles, 6);
        assert_eq!(c.grant_wait.count(), 2);
        assert!(c.conflicts >= 1, "wormhole blocking must be visible");
        assert_eq!(r.noc.utilization_cycles(), r.noc.stats().flit_hops);
    }

    #[test]
    #[should_panic(expected = "more than 65535 nodes")]
    fn mesh_with_more_nodes_than_ids_rejected() {
        // 300×300 = 90 000 nodes, which `u16` node ids would wrap.
        let cfg = XpipesConfig {
            width: 300,
            height: 300,
            master_nodes: vec![0],
            slave_nodes: vec![1],
            input_fifo_flits: 4,
        };
        let map = Arc::new(AddressMap::new());
        let mut links = LinkArena::new();
        let (_, s) = links.channel("cpu", MasterId(0));
        let (m, _) = links.channel("slave", MasterId(0));
        let _ = XpipesNoc::new("huge", vec![s], vec![m], map, cfg);
    }

    #[test]
    #[should_panic(expected = "hosts two NIs")]
    fn overlapping_attachment_rejected() {
        let cfg = XpipesConfig {
            width: 2,
            height: 2,
            master_nodes: vec![0],
            slave_nodes: vec![0],
            input_fifo_flits: 4,
        };
        let map = Arc::new(AddressMap::new());
        let mut links = LinkArena::new();
        let (_, s) = links.channel("cpu", MasterId(0));
        let (m, _) = links.channel("slave", MasterId(0));
        let _ = XpipesNoc::new("bad", vec![s], vec![m], map, cfg);
    }
}
