package netem

import (
	"fmt"
	"math"
	"sort"
)

// Population-scale timing model: the hierarchical companion to Cluster.
// Where Cluster times a flat 10^2-node testbed round, PopulationModel
// times a cohort round sampled from 10^5–10^6 registered devices and
// aggregated through a multi-tier tree (fl.Tree): cohort members upload
// to leaf aggregators, each tier forwards one partial-sum message upward,
// and the root's fan-in is the tree fanout rather than the cohort size.
//
// Per-member heterogeneity is derived by hashing (seed, id) — every
// registered device has a stable bandwidth/compute profile without the
// model holding any O(population) state, so a 10^6-member registry costs
// nothing until a member is actually sampled into a cohort. All draws are
// deterministic given (seed, round, id): two runs over the same cohort
// see identical timings regardless of call history, which keeps engine
// runs reproducible and lets the flat-vs-tree comparisons hold the
// network constant.
type PopulationModel struct {
	cfg PopulationConfig
}

// PopulationConfig describes the population-scale deployment.
type PopulationConfig struct {
	// PopulationSize is the number of registered devices (profiles exist
	// for ids 0..PopulationSize-1; other ids still hash to valid profiles).
	PopulationSize int
	// ClientUplinkMbps / ClientDownlinkMbps are the nominal device access
	// links; per-device lognormal spread comes from BandwidthSigma.
	ClientUplinkMbps   float64
	ClientDownlinkMbps float64
	// BandwidthSigma is the lognormal sigma of the per-device bandwidth
	// multiplier (FedScale-style device diversity; 0 = homogeneous).
	BandwidthSigma float64
	// ComputeHeterogeneity spreads per-device compute speed uniformly in
	// [1-h, 1+h] of nominal.
	ComputeHeterogeneity float64
	// RoundJitter is the per-(round, device) multiplicative compute noise.
	RoundJitter float64
	// AggregatorBandwidthMbps is each leaf/mid aggregator's uplink toward
	// its parent tier (datacenter-class, shared by its fanout siblings at
	// the receiving end).
	AggregatorBandwidthMbps float64
	// RootBandwidthMbps is the root's aggregate ingest link.
	RootBandwidthMbps float64
	// LatencySeconds is the device access one-way propagation delay;
	// TierLatencySeconds the per-tier hop delay between aggregators.
	LatencySeconds     float64
	TierLatencySeconds float64
	// Participation is the fraction of earliest cohort members the round
	// waits for (the paper's 70 % rule applied at cohort scope).
	Participation float64
	// Fanout is the aggregation-tree fanout (rounded up to a power of two
	// by fl.Tree; the timing model uses it as given).
	Fanout int
	// Seed keys every profile and jitter hash.
	Seed int64
}

// DefaultPopulationConfig returns a population-scale deployment patterned
// on the paper's testbed numbers: device links match the flat cluster,
// aggregators sit on datacenter links.
func DefaultPopulationConfig(populationSize, fanout int) PopulationConfig {
	return PopulationConfig{
		PopulationSize:          populationSize,
		ClientUplinkMbps:        13.7,
		ClientDownlinkMbps:      13.7,
		BandwidthSigma:          0.25,
		ComputeHeterogeneity:    0.2,
		RoundJitter:             0.05,
		AggregatorBandwidthMbps: 1_000,
		RootBandwidthMbps:       10_000,
		LatencySeconds:          0.02,
		TierLatencySeconds:      0.002,
		Participation:           0.7,
		Fanout:                  fanout,
		Seed:                    1,
	}
}

// NewPopulationModel validates the config and builds the model (which
// holds no per-member state).
func NewPopulationModel(cfg PopulationConfig) (*PopulationModel, error) {
	if cfg.PopulationSize <= 0 {
		return nil, fmt.Errorf("netem: PopulationSize = %d", cfg.PopulationSize)
	}
	if cfg.Fanout < 2 {
		return nil, fmt.Errorf("netem: Fanout = %d below 2", cfg.Fanout)
	}
	if cfg.Participation <= 0 || cfg.Participation > 1 {
		return nil, fmt.Errorf("netem: Participation = %v outside (0, 1]", cfg.Participation)
	}
	if cfg.ClientUplinkMbps <= 0 || cfg.ClientDownlinkMbps <= 0 ||
		cfg.AggregatorBandwidthMbps <= 0 || cfg.RootBandwidthMbps <= 0 {
		return nil, fmt.Errorf("netem: non-positive bandwidth in %+v", cfg)
	}
	return &PopulationModel{cfg: cfg}, nil
}

// Config returns the model configuration.
func (m *PopulationModel) Config() PopulationConfig { return m.cfg }

// ClientProfile is one device's stable heterogeneity draw.
type ClientProfile struct {
	// UplinkBps / DownlinkBps are the device's effective access-link
	// capacities in bytes per second.
	UplinkBps, DownlinkBps float64
	// Speed is the compute-speed multiplier (1 = nominal).
	Speed float64
}

// Profile derives the device's profile from (seed, id): O(1), identical
// on every call, independent of sampling history.
func (m *PopulationModel) Profile(id int) ClientProfile {
	// Two independent uniforms per draw dimension, from distinct hash
	// streams of the same (seed, id) key.
	u1 := hashUnit(m.cfg.Seed, 0x70726f66696c6531, uint64(uint32(id)), 0)
	u2 := hashUnit(m.cfg.Seed, 0x70726f66696c6532, uint64(uint32(id)), 0)
	u3 := hashUnit(m.cfg.Seed, 0x70726f66696c6533, uint64(uint32(id)), 0)
	speed := 1 + m.cfg.ComputeHeterogeneity*(2*u1-1)
	bw := 1.0
	if m.cfg.BandwidthSigma > 0 {
		// Lognormal with median 1 via Box–Muller on the two hash uniforms.
		z := math.Sqrt(-2*math.Log(1-u2)) * math.Cos(2*math.Pi*u3)
		bw = math.Exp(m.cfg.BandwidthSigma * z)
	}
	return ClientProfile{
		UplinkBps:   Mbps(m.cfg.ClientUplinkMbps) * bw,
		DownlinkBps: Mbps(m.cfg.ClientDownlinkMbps) * bw,
		Speed:       speed,
	}
}

// CohortOutcome reports the emulated timing of one tree-aggregated round.
type CohortOutcome struct {
	// Duration is the wall-clock span from round start until the root
	// holds the global partial: quorum member time plus the tier cascade.
	Duration float64
	// Participants lists the accepted (earliest-quorum) member ids in
	// ascending device-intrinsic completion-time order. Membership is
	// topology-independent: the same cohort yields the same participants
	// at any fanout, so flat and tree arms train identical trajectories.
	Participants []int
	// MemberTimes holds each cohort member's individual completion time,
	// aligned with the cohort argument.
	MemberTimes []float64
	// Tiers is the aggregation tier count (leaves through root).
	Tiers int
	// TierForwardSeconds[i] is the partial forwarding span from tier i to
	// tier i+1 (len Tiers-1).
	TierForwardSeconds []float64
	// LeafRxBytes is the total payload received across all leaves (the
	// flat server would have received all of it at the root).
	LeafRxBytes int
	// RootRxBytes is what the root actually ingests: one partial per
	// root-tier child.
	RootRxBytes int
}

// CohortRound times one round over the sampled cohort. loads must align
// with cohort (use UniformCohortLoad for the common identical-payload
// case); partialBytes is the encoded size of one partial-sum message
// (sum + weight + traffic, see codec.PartialSize). The round
// closes when the earliest ⌈participation·k⌉ members are in, then the
// partial cascade climbs the tree.
func (m *PopulationModel) CohortRound(round int, cohort []int, loads []ClientLoad, partialBytes int) CohortOutcome {
	if len(loads) != len(cohort) {
		panic(fmt.Sprintf("netem: CohortRound got %d loads for %d members", len(loads), len(cohort)))
	}
	k := len(cohort)
	if k == 0 {
		return CohortOutcome{Tiers: 0}
	}

	// Leaf fan-in: each leaf serves up to Fanout members concurrently on
	// an aggregator link, so a member's effective rate is bounded by its
	// access link and by its fair share of the leaf ingest link.
	//
	// Quorum MEMBERSHIP, however, is decided by device-intrinsic times
	// (access link + compute only): which devices are fast enough to make
	// the round is a property of the fleet, not of the server topology.
	// This is what keeps the flat-vs-tree comparison an identical
	// training trajectory — the same participants train and fold in both
	// arms, bit-for-bit — while infrastructure contention still shows up
	// where it belongs, in the round Duration (a 1000-fan-in flat root
	// stretches everyone's contended upload; the tree's leaves do not).
	leafShare := Mbps(m.cfg.AggregatorBandwidthMbps) / float64(m.cfg.Fanout)

	times := make([]float64, k)
	intrinsic := make([]float64, k)
	order := make([]int, k)
	leafRx := 0
	for i, id := range cohort {
		p := m.Profile(id)
		jitter := 1 + m.cfg.RoundJitter*(2*hashUnit(m.cfg.Seed, 0x6a697474657234, uint64(uint32(id)), uint64(round))-1)
		down := minf(p.DownlinkBps, leafShare)
		up := minf(p.UplinkBps, leafShare)
		elapsed := loads[i].ComputeSeconds/p.Speed*jitter + 2*m.cfg.LatencySeconds
		intrinsic[i] = elapsed +
			float64(loads[i].DownBytes)/p.DownlinkBps +
			float64(loads[i].UpBytes)/p.UplinkBps
		times[i] = elapsed +
			float64(loads[i].DownBytes)/down +
			float64(loads[i].UpBytes)/up
		order[i] = i
		leafRx += loads[i].UpBytes
	}
	sort.Slice(order, func(a, b int) bool {
		ta, tb := intrinsic[order[a]], intrinsic[order[b]]
		if ta != tb {
			return ta < tb
		}
		return cohort[order[a]] < cohort[order[b]] // deterministic ties
	})
	quorum := quorumSize(k, m.cfg.Participation)
	participants := make([]int, quorum)
	base := 0.0
	for i := 0; i < quorum; i++ {
		participants[i] = cohort[order[i]]
		if t := times[order[i]]; t > base {
			base = t
		}
	}

	// Tier cascade: width shrinks by Fanout per tier; each hop forwards
	// one partial over the tier link's per-child fair share plus the hop
	// latency. Transfers within a tier run in parallel, so a tier's span
	// is one transfer.
	tiers := 1
	widths := []int{(k + m.cfg.Fanout - 1) / m.cfg.Fanout}
	for w := widths[0]; w > 1; w = (w + m.cfg.Fanout - 1) / m.cfg.Fanout {
		tiers++
		widths = append(widths, (w+m.cfg.Fanout-1)/m.cfg.Fanout)
	}
	forward := make([]float64, 0, tiers-1)
	total := base
	for hop := 0; hop < tiers-1; hop++ {
		bw := Mbps(m.cfg.AggregatorBandwidthMbps)
		if hop == tiers-2 {
			bw = Mbps(m.cfg.RootBandwidthMbps)
		}
		span := float64(partialBytes)/(bw/float64(m.cfg.Fanout)) + m.cfg.TierLatencySeconds
		forward = append(forward, span)
		total += span
	}
	// A single-tier tree is the degenerate flat case: the root ingests the
	// member uploads directly. With tiers, the root receives one partial
	// per root-tier child.
	rootRx := leafRx
	if tiers >= 2 {
		rootRx = widths[len(widths)-2] * partialBytes
	}
	return CohortOutcome{
		Duration:           total,
		Participants:       participants,
		MemberTimes:        times,
		Tiers:              tiers,
		TierForwardSeconds: forward,
		LeafRxBytes:        leafRx,
		RootRxBytes:        rootRx,
	}
}

// UniformCohortLoad builds identical loads for every cohort member.
func UniformCohortLoad(k, downBytes, upBytes int, computeSeconds float64) []ClientLoad {
	loads := make([]ClientLoad, k)
	for i := range loads {
		loads[i] = ClientLoad{DownBytes: downBytes, UpBytes: upBytes, ComputeSeconds: computeSeconds}
	}
	return loads
}

// hashUnit maps (seed, stream, id, round) to a uniform float64 in [0, 1)
// through a SplitMix64-style avalanche: a pure function of its key, so
// profile and jitter draws are order- and history-independent.
func hashUnit(seed int64, stream, id, round uint64) float64 {
	x := uint64(seed) ^ stream
	x ^= id*0xd1342543de82ef95 + 0x2545f4914f6cdd1d
	x ^= round * 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / (1 << 53)
}
