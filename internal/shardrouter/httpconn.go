package shardrouter

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync/atomic"
	"time"
)

// HTTPConn drives one hopiserve primary as a shard over its HTTP API:
// the /shard/* RPC endpoints for evaluation, the maintenance endpoints
// for writes, and /readyz for readiness. Transport failures surface as
// *ShardUnavailableError (opening the router's circuit breaker); a 412
// from a pinned request is decoded back into the *EpochMismatchError
// the shard raised.
//
// The hot RPCs (Step, Deliver, Closure) travel as binary frames (see
// codec.go) both ways; errors and the cold endpoints are JSON.
type HTTPConn struct {
	base string
	name string
	hc   *http.Client

	// wire, when attached by a Router, counts request/response payload
	// bytes for the hopi_router_wire_bytes_{in,out}_total counters.
	wire atomic.Pointer[WireStats]
}

// NewHTTPShard returns a connection to the hopiserve primary at
// baseURL (e.g. "http://shard0:8080"). The client bounds each RPC at
// timeout (0 picks 30s); per-request contexts cancel earlier. The
// transport keeps idle connections pooled per host so the router's
// fan-out rounds reuse TCP connections instead of re-dialing every
// shard every round.
func NewHTTPShard(baseURL string, timeout time.Duration) *HTTPConn {
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	base := strings.TrimSuffix(baseURL, "/")
	tr := &http.Transport{
		MaxIdleConns:        128,
		MaxIdleConnsPerHost: 32,
		IdleConnTimeout:     90 * time.Second,
	}
	return &HTTPConn{base: base, name: base, hc: &http.Client{Timeout: timeout, Transport: tr}}
}

func (c *HTTPConn) Name() string { return c.name }

// AttachWireStats points the connection's byte counters at the
// router's aggregate; the Router calls this from New.
func (c *HTTPConn) AttachWireStats(ws *WireStats) { c.wire.Store(ws) }

func (c *HTTPConn) countOut(n int) {
	if ws := c.wire.Load(); ws != nil {
		ws.AddOut(n)
	}
}

func (c *HTTPConn) countIn(n int) {
	if ws := c.wire.Load(); ws != nil {
		ws.AddIn(n)
	}
}

// mapError turns a non-2xx response into the router tier's error
// vocabulary.
func (c *HTTPConn) mapError(status int, body []byte) error {
	var eb struct {
		Error    string              `json:"error"`
		Mismatch *EpochMismatchError `json:"epochMismatch"`
	}
	_ = json.Unmarshal(body, &eb)
	switch status {
	case http.StatusPreconditionFailed:
		if eb.Mismatch != nil {
			em := *eb.Mismatch
			if em.Shard == "" || em.Shard == "self" {
				em.Shard = c.name
			}
			return &em
		}
	case http.StatusNotFound:
		return fmt.Errorf("%w: shard %s: %s", ErrNotFound, c.name, eb.Error)
	case http.StatusConflict:
		return fmt.Errorf("%w: shard %s: %s", ErrExists, c.name, eb.Error)
	case http.StatusServiceUnavailable, http.StatusBadGateway, http.StatusGatewayTimeout:
		return &ShardUnavailableError{Shard: c.name, Err: fmt.Errorf("status %d: %s", status, eb.Error)}
	}
	if eb.Error == "" {
		eb.Error = strings.TrimSpace(string(body))
	}
	return fmt.Errorf("shard %s: status %d: %s", c.name, status, eb.Error)
}

// request builds one request to the shard, counting its body as
// outbound wire bytes.
func (c *HTTPConn) request(ctx context.Context, method, path, ctype string, body []byte) (*http.Request, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	c.countOut(len(body))
	return req, nil
}

// rpc posts one hot-path request frame and returns the response
// frame. trace, when set, also travels as the X-Hopi-Trace header so
// access logs correlate.
func (c *HTTPConn) rpc(ctx context.Context, path, trace string, frame []byte) ([]byte, error) {
	req, err := c.request(ctx, http.MethodPost, path, BinaryContentType, frame)
	if err != nil {
		return nil, err
	}
	if trace != "" {
		req.Header.Set(TraceHeader, trace)
	}
	return c.send(req)
}

// send issues one request and returns the body of a 2xx response;
// other statuses map to the router tier's errors.
func (c *HTTPConn) send(req *http.Request) ([]byte, error) {
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, &ShardUnavailableError{Shard: c.name, Err: err}
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return nil, &ShardUnavailableError{Shard: c.name, Err: err}
	}
	c.countIn(len(body))
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		return nil, c.mapError(resp.StatusCode, body)
	}
	return body, nil
}

// do runs one request on the cold endpoints (writes, Resolve):
// in, when non-nil, is sent as a JSON body, and the JSON response is
// decoded into out when out is non-nil.
func (c *HTTPConn) do(ctx context.Context, method, path string, in, out any) error {
	var payload []byte
	ctype := ""
	if in != nil {
		var err error
		if payload, err = json.Marshal(in); err != nil {
			return err
		}
		ctype = "application/json"
	}
	req, err := c.request(ctx, method, path, ctype, payload)
	if err != nil {
		return err
	}
	return c.sendJSON(req, out)
}

// sendJSON sends req and decodes its JSON response into out (when out is
// non-nil).
func (c *HTTPConn) sendJSON(req *http.Request, out any) error {
	body, err := c.send(req)
	if err != nil || out == nil {
		return err
	}
	if err := json.Unmarshal(body, out); err != nil {
		return fmt.Errorf("shard %s: bad response: %w", c.name, err)
	}
	return nil
}

func (c *HTTPConn) Step(ctx context.Context, sr *StepRequest) (*StepResponse, error) {
	body, err := c.rpc(ctx, "/shard/step", sr.Trace, EncodeStepRequest(sr))
	if err != nil {
		return nil, err
	}
	return DecodeStepResponse(body)
}

func (c *HTTPConn) Deliver(ctx context.Context, dr *DeliverRequest) (*DeliverResponse, error) {
	body, err := c.rpc(ctx, "/shard/deliver", dr.Trace, EncodeDeliverRequest(dr))
	if err != nil {
		return nil, err
	}
	return DecodeDeliverResponse(body)
}

func (c *HTTPConn) Closure(ctx context.Context, cr *ClosureRequest) (*ClosureResponse, error) {
	body, err := c.rpc(ctx, "/shard/closure", cr.Trace, EncodeClosureRequest(cr))
	if err != nil {
		return nil, err
	}
	return DecodeClosureResponse(body)
}

func (c *HTTPConn) Resolve(ctx context.Context, specs []string) ([]ResolveResult, error) {
	var out struct {
		Results []ResolveResult `json:"results"`
	}
	in := struct {
		Specs []string `json:"specs"`
	}{Specs: specs}
	if err := c.do(ctx, http.MethodPost, "/shard/resolve", in, &out); err != nil {
		return nil, err
	}
	return out.Results, nil
}

// Ready reads the shard's /readyz: 200 is ready, and any other answer
// carries the shard's own reason, judged by its -ready-max-lag.
func (c *HTTPConn) Ready(ctx context.Context) error {
	req, err := c.request(ctx, http.MethodGet, "/readyz", "", nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return &ShardUnavailableError{Shard: c.name, Err: err}
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	c.countIn(len(body))
	if resp.StatusCode == http.StatusOK {
		return nil
	}
	var st struct {
		Why string `json:"why"`
	}
	json.Unmarshal(body, &st)
	return fmt.Errorf("shard %s: %s", c.name, cmp.Or(st.Why, resp.Status))
}

func (c *HTTPConn) Write(ctx context.Context, wr *WriteRequest) (*WriteResult, error) {
	var out WriteResult
	switch wr.Op {
	case OpInsertDoc:
		req, err := c.request(ctx, http.MethodPost, "/docs?name="+url.QueryEscape(wr.Name), "application/xml", []byte(wr.XML))
		if err != nil {
			return nil, err
		}
		if err := c.sendJSON(req, &out); err != nil {
			return nil, err
		}
	case OpDeleteDoc:
		if err := c.do(ctx, http.MethodDelete, "/docs/"+url.PathEscape(wr.Name), nil, &out); err != nil {
			return nil, err
		}
	case OpInsertLink, OpDeleteLink:
		method := http.MethodPost
		if wr.Op == OpDeleteLink {
			method = http.MethodDelete
		}
		link := struct {
			From string `json:"from"`
			To   string `json:"to"`
		}{From: wr.From, To: wr.To}
		if err := c.do(ctx, method, "/links", link, &out); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("shardrouter: unknown shard write op %q", wr.Op)
	}
	return &out, nil
}

var _ Conn = (*HTTPConn)(nil)
