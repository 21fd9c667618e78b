// Package repro is a Go implementation of "Real Time Discovery of Dense
// Clusters in Highly Dynamic Graphs: Identifying Real World Events in
// Highly Dynamic Environments" (Agarwal, Ramamritham, Bhide; PVLDB 5(10),
// 2012).
//
// It provides two public entry points:
//
//   - Detector: the full microblog event-discovery pipeline. Feed it a
//     stream of Messages; it cuts the stream into quanta, maintains the
//     Active Correlated Keyword Graph (burstiness automaton + Min-Hash
//     screened Jaccard correlation edges), discovers dense clusters via
//     the short-cycle property, and emits ranked events with full
//     lifecycle tracking (birth, evolution, merge, split, death).
//
//   - Engine: the underlying short-cycle-property cluster engine on a
//     generic dynamic graph, for non-text domains (IP networks, telecom
//     graphs, business analytics — the extensions Section 8 of the paper
//     anticipates). Add and remove nodes/edges; the engine maintains the
//     unique canonical SCP clustering with purely local computation.
//
//   - Pool / Server: the HTTP/JSON serving subsystem (cmd/serve): a
//     multi-tenant detector pool with bounded ingest queues, live event
//     and correlation queries, an SSE push stream of per-quantum reports,
//     and write-ahead-log persistence so restarts resume each
//     tenant's stream bit-identically. Design notes: docs/ARCHITECTURE.md.
//
// Quickstart:
//
//	d := repro.NewDetector(repro.Config{})
//	for _, m := range messages {
//		if res := d.Ingest(m); res != nil {
//			for _, r := range res.Reports {
//				fmt.Println(r.Rank, r.Keywords)
//			}
//		}
//	}
//
// All types are aliases of their internal implementations, so the full
// documented API of each subsystem applies.
package repro

import (
	"io"
	"net/http"

	"repro/internal/akg"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/dygraph"
	"repro/internal/eval"
	"repro/internal/server"
	"repro/internal/stream"
	"repro/internal/tracegen"
)

// ---- Streaming detector pipeline ----

// Message is one microblog post (ID, User, Time, Text).
type Message = stream.Message

// Source yields messages in arrival order.
type Source = stream.Source

// Config configures a Detector; zero values take the paper's Table 2
// nominal parameters (Δ=160 messages, τ=4, β=0.20, w=30).
type Config = detect.Config

// GraphConfig holds the AKG-layer thresholds (τ, β, w, Min-Hash p).
type GraphConfig = akg.Config

// Detector is the streaming event-discovery pipeline.
type Detector = detect.Detector

// Event is a tracked event lifecycle.
type Event = detect.Event

// Report is a per-quantum snapshot of a reportable event.
type Report = detect.Report

// QuantumResult summarises one processed quantum.
type QuantumResult = detect.QuantumResult

// RelatedPair reports two live events whose user communities overlap —
// the post-processing correlation for same-event clusters (Section 1.1).
type RelatedPair = detect.RelatedPair

// Event lifecycle states.
const (
	EventLive   = detect.EventLive
	EventMerged = detect.EventMerged
	EventEnded  = detect.EventEnded
)

// NewDetector returns a streaming detector.
func NewDetector(cfg Config) *Detector { return detect.New(cfg) }

// LoadDetector restores a detector from a checkpoint written by
// Detector.Save. The restored detector continues the stream exactly where
// the saved one stopped (bit-identical event histories).
func LoadDetector(r io.Reader) (*Detector, error) { return detect.Load(r) }

// MergeNote records one event absorbed by another during a quantum.
type MergeNote = detect.MergeNote

// ---- Event-serving HTTP subsystem ----

// Pool is a multi-tenant detector pool: per-tenant ingest queues, query
// snapshots and SSE push, with write-ahead-log persistence.
type Pool = server.Pool

// PoolConfig configures a Pool.
type PoolConfig = server.PoolConfig

// Tenant is one isolated detector inside a Pool.
type Tenant = server.Tenant

// TenantStats is the monitoring snapshot of one tenant.
type TenantStats = server.TenantStats

// StreamEvent is the per-quantum SSE push payload.
type StreamEvent = server.StreamEvent

// ServerConfig configures a Server.
type ServerConfig = server.Config

// Server is the HTTP serving frontend over a Pool (see cmd/serve).
type Server = server.Server

// NewPool builds a detector pool, recovering any tenants on disk.
func NewPool(cfg PoolConfig) (*Pool, error) { return server.NewPool(cfg) }

// NewServer builds an HTTP server (and its pool) from cfg.
func NewServer(cfg ServerConfig) (*Server, error) { return server.New(cfg) }

// NewServerHandler returns just the HTTP API handler over a pool, for
// embedding into an existing mux or test server.
func NewServerHandler(p *Pool) http.Handler { return server.NewHandler(p) }

// ---- Generic dynamic-graph cluster engine ----

// NodeID identifies a graph node.
type NodeID = dygraph.NodeID

// Edge is an undirected edge in canonical (U < V) orientation.
type Edge = dygraph.Edge

// NewEdge returns the canonical edge between two nodes.
func NewEdge(a, b NodeID) Edge { return dygraph.NewEdge(a, b) }

// Graph is the dynamic undirected weighted graph substrate. Nodes are
// found through a table indexed by NodeID, so its memory grows with the
// largest NodeID used — by up to 4 bytes per ID (8 bytes per 64 IDs,
// plus a 64-slot int32 page per block of 64 IDs holding a node): IDs
// should be dense, as the detector's keyword IDs are.
type Graph = dygraph.Graph

// NewGraph returns an empty dynamic graph. Its node table grows by up to
// 4 bytes per ID up to the largest NodeID added.
func NewGraph() *Graph { return dygraph.New() }

// Engine maintains the canonical short-cycle-property clustering of a
// dynamic graph under local updates.
type Engine = core.Engine

// Cluster is a dense cluster (approximate majority quasi-clique).
type Cluster = core.Cluster

// ClusterID identifies a live cluster.
type ClusterID = core.ClusterID

// Hooks receives cluster lifecycle callbacks.
type Hooks = core.Hooks

// NewEngine returns a cluster engine over an empty graph.
func NewEngine(hooks Hooks) *Engine { return core.NewEngine(hooks) }

// CanonicalClusters computes the canonical SCP clustering of a graph from
// scratch — the global reference the incremental engine provably matches.
func CanonicalClusters(g *Graph) []core.EdgeSet { return core.Canonical(g) }

// ---- Workload generation and evaluation ----

// TraceConfig controls synthetic trace generation.
type TraceConfig = tracegen.Config

// GroundTruth is the injected-event log of a synthetic trace.
type GroundTruth = tracegen.GroundTruth

// GTEvent is one injected ground-truth event.
type GTEvent = tracegen.GTEvent

// EvalResult aggregates precision/recall/latency/quality for one run.
type EvalResult = eval.Result

// TWTrace generates a Time-Window profile trace (general stream, low event
// density) of n messages.
func TWTrace(seed int64, n int) ([]Message, GroundTruth) {
	return tracegen.Generate(tracegen.TWConfig(seed, n))
}

// ESTrace generates an Event-Specific profile trace (≈3× the event
// density of TW) of n messages.
func ESTrace(seed int64, n int) ([]Message, GroundTruth) {
	return tracegen.Generate(tracegen.ESConfig(seed, n))
}

// GenerateTrace generates a trace from an explicit configuration.
func GenerateTrace(cfg TraceConfig) ([]Message, GroundTruth) {
	return tracegen.Generate(cfg)
}

// Evaluate runs a detector over msgs and scores it against ground truth.
func Evaluate(cfg Config, msgs []Message, gt *GroundTruth) (EvalResult, *Detector, error) {
	return eval.Run(cfg, msgs, gt)
}

// NewSliceSource wraps in-memory messages as a Source.
func NewSliceSource(msgs []Message) *stream.SliceSource {
	return stream.NewSliceSource(msgs)
}
