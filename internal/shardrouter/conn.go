package shardrouter

import (
	"context"
	"errors"
	"fmt"
)

// Conn is one shard primary as seen by the router: a handful of
// snapshot-pinned evaluation primitives (one location step at a time),
// closure probes between cross-link endpoints, element resolution, and
// the write operations the router routes by shard key. Implementations
// exist in-process (hopi.NewLocalShard, used by tests and benchmark/)
// and over HTTP against a hopiserve primary (NewHTTPShard).
//
// Every read request carries the snapshot epoch the router pinned at
// the start of the query (0 pins the shard's current snapshot); a
// shard whose state has moved on answers *EpochMismatchError and the
// router retries the whole query against fresh epochs, so a multi-RPC
// evaluation never mixes two shard states.
type Conn interface {
	// Name identifies the shard in errors and status reports.
	Name() string
	// Ready returns nil when the shard serves complete, fresh answers,
	// and otherwise says why not; the router's /readyz gathers it.
	Ready(ctx context.Context) error
	// Step evaluates one location step shard-locally.
	Step(ctx context.Context, req *StepRequest) (*StepResponse, error)
	// Deliver injects cross-shard frontier arrivals at in-endpoints and
	// returns the local matches they produce.
	Deliver(ctx context.Context, req *DeliverRequest) (*DeliverResponse, error)
	// Closure reports shard-local reachability (with distances on
	// distance-aware indexes) between cross-link endpoints.
	Closure(ctx context.Context, req *ClosureRequest) (*ClosureResponse, error)
	// Resolve checks element specs ("doc", "doc:idx", "doc#anchor")
	// against the shard's current state.
	Resolve(ctx context.Context, specs []string) ([]ResolveResult, error)
	// Write applies one maintenance operation.
	Write(ctx context.Context, req *WriteRequest) (*WriteResult, error)
}

// FrontierElem is one element of a query frontier: a shard-local
// global element ID plus its accumulated ranked score (0 and unused in
// boolean mode). The final step's response also carries the result
// metadata the router needs to merge globally.
type FrontierElem struct {
	ID    int32   `json:"id"`
	Score float64 `json:"score,omitempty"`
	// Doc, Local, and Tag are populated only when the request set
	// WantMeta (the router asks on the final step).
	Doc   string `json:"doc,omitempty"`
	Local int32  `json:"local,omitempty"`
	Tag   string `json:"tag,omitempty"`
}

// Arrival is one Pareto-optimal way a query frontier reaches a
// cross-link endpoint: the accumulated score of the originating
// frontier element and the path distance so far. Boolean queries use a
// single zero Arrival as a pure reachability marker.
type Arrival struct {
	Base float64 `json:"base"`
	Dist uint32  `json:"dist"`
}

// StepRequest evaluates one location step over an explicit frontier.
type StepRequest struct {
	// Epoch pins the snapshot when Pin is set: the shard's current
	// snapshot must sit at exactly this epoch (see EpochMismatchError).
	// With Pin unset the shard serves its current snapshot and reports
	// the epoch it observed — the router's first round pins the cut
	// this way.
	Epoch uint64 `json:"epoch"`
	Pin   bool   `json:"pin,omitempty"`
	// Retain, with Pin, lets the shard serve the pinned epoch from its
	// retained-snapshot ring when its current state has already moved
	// on. The router sets it on the mid-flight requests of fresh
	// queries — a query that pinned its cut should not be invalidated
	// by writes landing during evaluation — but never on resumes, whose
	// epoch-equality check is the resume-token staleness contract.
	Retain bool `json:"retain,omitempty"`
	Ranked bool `json:"ranked"`
	// Seed evaluates the step as the query's first step (the frontier
	// field is ignored): the tag's candidates, root-anchored for "/".
	Seed     bool           `json:"seed,omitempty"`
	Axis     string         `json:"axis"` // "/" or "//"
	Tag      string         `json:"tag"`
	Frontier []FrontierElem `json:"frontier,omitempty"`
	// ProbeOut lists element specs of cross-link sources on this shard;
	// the response reports which of them the *input* frontier reaches
	// (reflexively — the cross edge that follows keeps the path proper).
	ProbeOut []string `json:"probeOut,omitempty"`
	// WantMeta asks for Doc/Local/Tag on the response frontier.
	WantMeta bool `json:"wantMeta,omitempty"`
	// Trace is the router-minted trace ID this RPC belongs to; when
	// set, the shard returns a Span and its access log carries the ID.
	Trace string `json:"trace,omitempty"`
}

// StepResponse carries the shard-local part of the next frontier plus
// the out-endpoint arrivals for the router's cross-shard join.
type StepResponse struct {
	Epoch    uint64 `json:"epoch"`
	Scope    uint64 `json:"scope"`
	SeqEpoch bool   `json:"seqEpoch"`

	Frontier []FrontierElem `json:"frontier,omitempty"`
	// Out maps probed endpoint specs to their arrival lists; a probe
	// the frontier does not reach is absent.
	Out map[string][]Arrival `json:"out,omitempty"`
	// Span is the shard's timing breakdown, returned only for traced
	// requests (see trace.go).
	Span *Span `json:"span,omitempty"`
}

// DeliverRequest injects arrivals at cross-link targets on this shard
// and asks which step candidates they reach (reflexively; the arrival
// distance already includes at least one cross edge, so matches are
// proper paths). The shard answers from per-snapshot delivery tables
// (per in-endpoint, the tag-matching candidates it reaches), which it
// memoizes, so a repeated step against the same cut only composes.
type DeliverRequest struct {
	Epoch    uint64               `json:"epoch"`
	Retain   bool                 `json:"retain,omitempty"` // see StepRequest.Retain
	Ranked   bool                 `json:"ranked"`
	Tag      string               `json:"tag"`
	In       map[string][]Arrival `json:"in"`
	WantMeta bool                 `json:"wantMeta,omitempty"`
	Trace    string               `json:"trace,omitempty"` // see StepRequest.Trace
}

// DeliverResponse lists the candidates reached through cross-shard
// paths, with their scores in ranked mode.
type DeliverResponse struct {
	Matches []FrontierElem `json:"matches,omitempty"`
	Span    *Span          `json:"span,omitempty"` // see StepResponse.Span
}

// ClosureRequest asks for shard-local reachability from each From
// endpoint to each To endpoint (cross-link targets to cross-link
// sources — the target→source edges of the endpoint graph). A shard
// snapshot memoizes the answer for the latest spec lists.
type ClosureRequest struct {
	Epoch    uint64   `json:"epoch"`
	Retain   bool     `json:"retain,omitempty"` // see StepRequest.Retain
	WithDist bool     `json:"withDist"`
	From     []string `json:"from"`
	To       []string `json:"to"`
	Trace    string   `json:"trace,omitempty"` // see StepRequest.Trace
}

// ClosureResponse is the row-major From×To distance matrix:
// graph.InfDist when unreachable, the shortest local distance when the
// request asked WithDist, 1 as a plain reachability marker otherwise.
type ClosureResponse struct {
	Dist []uint32 `json:"dist"`
	Span *Span    `json:"span,omitempty"` // see StepResponse.Span
}

// ResolveResult reports one element spec's resolution.
type ResolveResult struct {
	OK    bool   `json:"ok"`
	Doc   string `json:"doc,omitempty"`
	Local int32  `json:"local,omitempty"`
	Tag   string `json:"tag,omitempty"`
}

// Write operation kinds.
const (
	OpInsertDoc  = "insertDoc"
	OpDeleteDoc  = "deleteDoc"
	OpInsertLink = "insertLink"
	OpDeleteLink = "deleteLink"
)

// WriteRequest is one maintenance operation routed to a shard.
type WriteRequest struct {
	Op   string `json:"op"`
	Name string `json:"name,omitempty"` // document name (insertDoc/deleteDoc)
	XML  string `json:"xml,omitempty"`  // document body (insertDoc)
	From string `json:"from,omitempty"` // link endpoints: "doc" or "doc:idx";
	To   string `json:"to,omitempty"`   // To also accepts "doc#anchor"
}

// WriteResult reports a completed shard write and the epoch it
// produced (which retires resume tokens pinned to the shard).
type WriteResult struct {
	Epoch uint64 `json:"epoch"`
	Doc   int    `json:"doc,omitempty"`
	// Unresolved lists link targets ("doc#anchor") the shard could not
	// resolve locally; the router re-resolves them across shards.
	Unresolved []string `json:"unresolved,omitempty"`
}

// --- errors -----------------------------------------------------------

// ErrBadToken mirrors hopi.ErrBadToken for router vector tokens:
// malformed tokens and tokens issued for a different query, ranking
// mode, shard layout, or shard identity.
var ErrBadToken = errors.New("invalid page token")

// ErrStaleToken mirrors hopi.ErrStaleToken: the token's page sequence
// no longer exists because a shard (or the shard map) has moved on.
var ErrStaleToken = errors.New("stale page token: shard state changed")

// StaleVectorError is the concrete stale-token error: Shard names the
// first shard whose epoch diverged from the token (or "" when the
// shard map version diverged). Retryable is set when that shard is
// *behind* the token on a sequence-valued epoch — e.g. a shard serving
// through a lagging replica, or one still replaying its WAL — so the
// same token will succeed once it catches up; routers surface that as
// 503 with Retry-After rather than 400.
type StaleVectorError struct {
	Shard      string
	TokenEpoch uint64
	ShardEpoch uint64
	Retryable  bool
}

func (e *StaleVectorError) Error() string {
	if e.Shard == "" {
		return fmt.Sprintf("stale page token: shard map changed (token version %d, current %d)", e.TokenEpoch, e.ShardEpoch)
	}
	if e.Retryable {
		return fmt.Sprintf("stale page token: shard %s at epoch %d behind token epoch %d; retry once it catches up", e.Shard, e.ShardEpoch, e.TokenEpoch)
	}
	return fmt.Sprintf("stale page token: shard %s epoch changed (token %d, shard %d)", e.Shard, e.ShardEpoch, e.TokenEpoch)
}

// Unwrap lets errors.Is(err, ErrStaleToken) match.
func (e *StaleVectorError) Unwrap() error { return ErrStaleToken }

// EpochMismatchError is a shard's answer to a pinned request whose
// epoch no longer matches: the shard reports where it actually is so
// the router can classify (retry a fresh query, fail a resume as
// stale-retryable or stale-final).
type EpochMismatchError struct {
	Shard    string `json:"shard,omitempty"`
	Want     uint64 `json:"want"`
	Current  uint64 `json:"current"`
	Scope    uint64 `json:"scope"`
	SeqEpoch bool   `json:"seqEpoch"`
}

func (e *EpochMismatchError) Error() string {
	return fmt.Sprintf("shard %s: snapshot epoch %d, request pinned %d", e.Shard, e.Current, e.Want)
}

// ShardUnavailableError marks a shard the router could not reach (or
// one recently marked down by its circuit breaker). Routers surface it
// as 503 with Retry-After — the query cannot be answered completely
// without the shard, but the condition is transient.
type ShardUnavailableError struct {
	Shard string
	Err   error
}

func (e *ShardUnavailableError) Error() string {
	return fmt.Sprintf("shard %s unavailable: %v", e.Shard, e.Err)
}

func (e *ShardUnavailableError) Unwrap() error { return e.Err }
