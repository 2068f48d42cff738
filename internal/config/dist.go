package config

import (
	"flag"
	"fmt"
	"net"
	"strings"
	"time"
)

// Dist configures cmd/bpmf-dist: a multi-process TCP cluster (worker
// mode with -rank/-peers, or -launch forking all ranks locally), with
// optional elastic fault tolerance.
type Dist struct {
	// Launch forks N local worker processes and waits (0 = worker mode).
	Launch int `json:"launch,omitempty"`
	// Rank is this process's rank in worker mode.
	Rank int `json:"rank"`
	// Peers lists every rank's listen address in rank order,
	// comma-separated host:port pairs.
	Peers string `json:"peers,omitempty"`
	// BasePort is the first port for -launch mode.
	BasePort int `json:"baseport,omitempty"`

	Data    Data    `json:"data"`
	Sampler Sampler `json:"sampler"`
	// Threads is the worker-thread count per rank.
	Threads int `json:"threads,omitempty"`
	// Buffer is the coalescing buffer capacity in bytes.
	Buffer int `json:"buffer,omitempty"`

	// Elastic survives rank failures: detect dead peers, shrink the
	// cluster, resume from the latest checkpoint.
	Elastic    bool       `json:"elastic,omitempty"`
	Checkpoint Checkpoint `json:"checkpoint"`
	// Suspicion is the failure-detector timeout: a silent peer is
	// declared dead after this long.
	Suspicion Duration `json:"suspicion,omitempty"`
	Fault     Fault    `json:"fault"`

	// Join runs this process as a late worker: it asks the coordinator's
	// membership listener at this address to admit it, waits for the
	// sealed view, and enters the cluster at the resume iteration.
	Join string `json:"join,omitempty"`
	// Advertise is a -join worker's own fabric listen address (host:port
	// reachable by every member).
	Advertise string `json:"advertise,omitempty"`
	// JoinAddr is the membership listen address the coordinator (rank 0,
	// or the lowest survivor after a failure) accepts join requests on.
	JoinAddr string `json:"join_addr,omitempty"`
	// MinRanks aborts the run when a shrunken view falls below this many
	// members (default 1: shrink all the way to a single rank).
	MinRanks int `json:"min_ranks,omitempty"`
	// MaxRanks caps admissions (0 = unbounded).
	MaxRanks int `json:"max_ranks,omitempty"`
}

// DefaultDist returns cmd/bpmf-dist's defaults: a short chain at K=16
// on the small synthetic benchmark.
func DefaultDist() Dist {
	return Dist{
		Rank:      -1,
		BasePort:  9800,
		Data:      Data{Synthetic: "small", Scale: 1, TestFrac: 0.2},
		Sampler:   Sampler{K: 16, Alpha: 2, Iters: 10, Burnin: 5, Seed: 42},
		Threads:   1,
		Buffer:    64 << 10,
		Suspicion: Duration(3 * time.Second),
		Fault:     Fault{DieRank: -1, DieIter: -1},
		MinRanks:  1,
	}
}

// RegisterFlags declares cmd/bpmf-dist's flag surface over the struct's
// current values.
func (c *Dist) RegisterFlags(fs *flag.FlagSet) {
	fs.IntVar(&c.Launch, "launch", c.Launch, "fork N local worker processes and wait")
	fs.IntVar(&c.Rank, "rank", c.Rank, "this process's rank")
	fs.StringVar(&c.Peers, "peers", c.Peers, "comma-separated rank addresses (host:port per rank)")
	fs.IntVar(&c.BasePort, "baseport", c.BasePort, "first port for -launch mode")
	registerData(fs, &c.Data)
	registerSampler(fs, &c.Sampler)
	fs.IntVar(&c.Threads, "threads", c.Threads, "worker threads (per rank for distributed)")
	fs.IntVar(&c.Buffer, "buffer", c.Buffer, "coalescing buffer bytes")
	fs.BoolVar(&c.Elastic, "elastic", c.Elastic, "survive rank failures: detect dead peers, shrink the cluster, resume from the latest checkpoint")
	fs.StringVar(&c.Checkpoint.Dir, "ckpt-dir", c.Checkpoint.Dir, "directory for coordinated checkpoints (must be shared storage across ranks)")
	fs.IntVar(&c.Checkpoint.Every, "ckpt-every", c.Checkpoint.Every, "checkpoint every N iterations (0 disables)")
	fs.IntVar(&c.Checkpoint.ResumeIter, "resume-iter", c.Checkpoint.ResumeIter, "resume from the sealed manifest of this iteration instead of the latest (0 = latest)")
	fs.Var(&c.Suspicion, "suspicion", "failure-detector timeout: a silent peer is declared dead after this long")
	fs.IntVar(&c.Fault.DieRank, "die-rank", c.Fault.DieRank, "fault injection: the rank that kills itself (requires -die-iter)")
	fs.IntVar(&c.Fault.DieIter, "die-iter", c.Fault.DieIter, "fault injection: the iteration after which -die-rank exits")
	fs.StringVar(&c.Join, "join", c.Join, "join a running cluster as a late worker via this coordinator membership address")
	fs.StringVar(&c.Advertise, "advertise", c.Advertise, "this -join worker's own fabric listen address (host:port)")
	fs.StringVar(&c.JoinAddr, "join-addr", c.JoinAddr, "membership listen address the coordinator accepts -join requests on")
	fs.IntVar(&c.MinRanks, "min-ranks", c.MinRanks, "abort when a shrunken cluster falls below this many ranks")
	fs.IntVar(&c.MaxRanks, "max-ranks", c.MaxRanks, "cap on admitted cluster size (0 = unbounded)")
	fs.IntVar(&c.Fault.GrowAtIter, "grow-at-iter", c.Fault.GrowAtIter, "membership test hook: defer admitting pending joiners until this iteration")
	fs.Var(&c.Fault.JoinDelay, "join-delay", "membership test hook: sleep this long before filing the -join request")
	fs.Var(&c.Fault.IterDelay, "iter-delay", "test pacing: pause every rank this long after each iteration")
}

// Validate checks the merged configuration, including the cross-flag
// rules that used to live as ad-hoc log.Fatal checks in main: worker
// mode needs a coherent -rank/-peers pair, -elastic needs the
// checkpoint plane, and fault injection needs both halves.
func (c Dist) Validate() error {
	if err := c.Data.Validate(); err != nil {
		return err
	}
	if c.Data.Path == "" && c.Data.Synthetic == "" {
		return fmt.Errorf("config: need a data path (-data) or a synthetic benchmark (-synthetic)")
	}
	if err := c.Sampler.Validate(); err != nil {
		return err
	}
	if c.Threads < 1 {
		return fmt.Errorf("config: threads must be >= 1, got %d", c.Threads)
	}
	if c.Buffer == 0 {
		// Negative disables coalescing (a supported debug mode); zero
		// would mean "default" ambiguously — the default is explicit.
		return fmt.Errorf("config: buffer must be non-zero (negative disables coalescing)")
	}
	if err := c.Checkpoint.Validate(); err != nil {
		return err
	}
	if err := c.Fault.Validate(); err != nil {
		return err
	}
	if c.Suspicion <= 0 {
		return fmt.Errorf("config: suspicion timeout must be positive, got %s", c.Suspicion)
	}
	if c.Elastic && (c.Checkpoint.Dir == "" || c.Checkpoint.Every <= 0) {
		return fmt.Errorf("config: elastic needs a checkpoint dir and a positive checkpoint every (recovery resumes from the latest sealed manifest)")
	}
	if c.MinRanks < 1 {
		return fmt.Errorf("config: min-ranks must be >= 1, got %d", c.MinRanks)
	}
	if c.MaxRanks != 0 && c.MaxRanks < c.MinRanks {
		return fmt.Errorf("config: max-ranks (%d) must be 0 or >= min-ranks (%d)", c.MaxRanks, c.MinRanks)
	}
	if c.JoinAddr != "" {
		if _, _, err := net.SplitHostPort(c.JoinAddr); err != nil {
			return fmt.Errorf("config: join-addr %q is not host:port: %v", c.JoinAddr, err)
		}
		if !c.Elastic {
			return fmt.Errorf("config: join-addr needs -elastic (admitting a member re-meshes through the elastic drain/resume machinery)")
		}
	}
	if c.Join != "" {
		// Late-joiner mode: the view replaces -rank/-peers entirely.
		if c.Launch > 0 {
			return fmt.Errorf("config: -join cannot be combined with -launch (a joiner is a single late worker)")
		}
		if _, _, err := net.SplitHostPort(c.Join); err != nil {
			return fmt.Errorf("config: join %q is not host:port: %v", c.Join, err)
		}
		if c.Advertise == "" {
			return fmt.Errorf("config: -join needs -advertise (the joiner's own fabric listen address)")
		}
		if _, _, err := net.SplitHostPort(c.Advertise); err != nil {
			return fmt.Errorf("config: advertise %q is not host:port: %v", c.Advertise, err)
		}
		if !c.Elastic {
			return fmt.Errorf("config: -join needs -elastic (the joiner resumes through the elastic checkpoint plane)")
		}
		return nil
	}
	if c.Launch > 0 {
		if c.BasePort < 1 || c.BasePort > 65535-c.Launch {
			return fmt.Errorf("config: baseport %d cannot host %d consecutive rank ports", c.BasePort, c.Launch)
		}
		if c.MaxRanks != 0 && c.MaxRanks < c.Launch {
			return fmt.Errorf("config: max-ranks (%d) is below the launched cluster size (%d)", c.MaxRanks, c.Launch)
		}
		if c.MinRanks > c.Launch {
			return fmt.Errorf("config: min-ranks (%d) exceeds the launched cluster size (%d)", c.MinRanks, c.Launch)
		}
		return nil
	}
	// Worker mode: -rank and -peers must agree.
	addrs, err := ParsePeers(c.Peers)
	if err != nil {
		return fmt.Errorf("%w (worker mode needs -rank and -peers; or use -launch N)", err)
	}
	if c.Rank < 0 || c.Rank >= len(addrs) {
		return fmt.Errorf("config: rank %d outside the %d addresses in peers", c.Rank, len(addrs))
	}
	if c.MaxRanks != 0 && c.MaxRanks < len(addrs) {
		return fmt.Errorf("config: max-ranks (%d) is below the initial cluster size (%d)", c.MaxRanks, len(addrs))
	}
	if c.MinRanks > len(addrs) {
		return fmt.Errorf("config: min-ranks (%d) exceeds the initial cluster size (%d)", c.MinRanks, len(addrs))
	}
	return nil
}

// Addrs returns the validated peer address list in rank order.
func (c Dist) Addrs() ([]string, error) { return ParsePeers(c.Peers) }

// ParsePeers validates a -peers list up front: empty entries (stray
// commas), whitespace, malformed host:port pairs and duplicate
// addresses all produce a clear error here instead of a cluster that
// dials itself into a deadlock.
func ParsePeers(peers string) ([]string, error) {
	if strings.TrimSpace(peers) == "" {
		return nil, fmt.Errorf("config: missing peers")
	}
	addrs := strings.Split(peers, ",")
	seen := make(map[string]int, len(addrs))
	for i, a := range addrs {
		if strings.TrimSpace(a) == "" {
			return nil, fmt.Errorf("config: peers entry %d is empty (stray comma in %q)", i, peers)
		}
		if a != strings.TrimSpace(a) {
			return nil, fmt.Errorf("config: peers entry %d %q has surrounding whitespace", i, a)
		}
		if _, _, err := net.SplitHostPort(a); err != nil {
			return nil, fmt.Errorf("config: peers entry %d %q is not host:port: %v", i, a, err)
		}
		if prev, dup := seen[a]; dup {
			return nil, fmt.Errorf("config: peers lists %q for both rank %d and rank %d; every rank needs its own listen address", a, prev, i)
		}
		seen[a] = i
	}
	return addrs, nil
}
