package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"hopi"
)

// defaultWatchHeartbeat is the idle interval after which a /watch
// stream emits a heartbeat frame so intermediaries don't drop the
// connection (flag-configurable via -watch-heartbeat).
const defaultWatchHeartbeat = 3 * time.Second

// watchFrame is one NDJSON line of the /watch stream.
//
//	{"type":"init","epoch":E,"add":[...]}            full result set
//	{"type":"resume","epoch":E}                      resume accepted, no init
//	{"type":"delta","epoch":E,"add":[...],"remove":[...],"coalesced":N}
//	{"type":"hb","epoch":E}                          idle heartbeat
//	{"type":"resync","epoch":E}                      terminal: fell behind, re-subscribe with resume=E
//	{"type":"bye"}                                   terminal: server closing the stream
type watchFrame struct {
	Type      string        `json:"type"`
	Epoch     uint64        `json:"epoch,omitempty"`
	Add       []queryResult `json:"add,omitempty"`
	Remove    []queryResult `json:"remove,omitempty"`
	Coalesced int           `json:"coalesced,omitempty"`
}

// handleWatch serves GET /watch?expr=...&ranked=1&resume=EPOCH as a
// long-lived NDJSON stream of live-query events. The resume epoch may
// also arrive as a Last-Event-Epoch header (the query parameter wins);
// when it matches the current snapshot the init frame is replaced by a
// resume frame and the client's retained result set stays valid.
func (s *server) handleWatch(w http.ResponseWriter, r *http.Request) {
	expr := r.URL.Query().Get("expr")
	if expr == "" {
		writeErr(w, fmt.Errorf("missing expr parameter"))
		return
	}
	pq, err := s.cache.get(expr)
	if err != nil {
		writeErr(w, err)
		return
	}
	var opts []hopi.WatchOption
	if boolParam(r, "ranked") {
		opts = append(opts, hopi.WatchRanked())
	}
	resumeSpec := r.URL.Query().Get("resume")
	if resumeSpec == "" {
		resumeSpec = r.Header.Get("Last-Event-Epoch")
	}
	if resumeSpec != "" {
		epoch, err := strconv.ParseUint(resumeSpec, 10, 64)
		if err != nil {
			writeErr(w, fmt.Errorf("bad resume epoch %q", resumeSpec))
			return
		}
		opts = append(opts, hopi.WatchResume(epoch))
	}
	if err := s.shuttingDown(); err != nil {
		writeErr(w, err)
		return
	}
	// Cancel the subscription when the client disconnects or the
	// server begins shutting down, whichever comes first.
	ctx, done := s.streamContext(r)
	defer done()
	wt, err := s.ix.Watch(ctx, pq, opts...)
	if err != nil {
		writeErr(w, err)
		return
	}
	defer wt.Close()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	emit := func(fr watchFrame) {
		enc.Encode(fr)
		if flusher != nil {
			flusher.Flush()
		}
	}
	if wt.Resumed() {
		emit(watchFrame{Type: "resume", Epoch: s.ix.Epoch()})
	}
	for {
		hbCtx, hbCancel := context.WithTimeout(ctx, s.watchHB)
		ev, err := wt.Next(hbCtx)
		hbCancel()
		switch {
		case err == nil:
		case errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil:
			emit(watchFrame{Type: "hb", Epoch: s.ix.Epoch()})
			continue
		case errors.Is(err, hopi.ErrWatchClosed), ctx.Err() != nil:
			// index closed, server shutdown, or client gone: say
			// goodbye (a no-op on a dead connection) and end cleanly
			emit(watchFrame{Type: "bye"})
			return
		default:
			emit(watchFrame{Type: "bye"})
			return
		}
		fr := watchFrame{Epoch: ev.Epoch, Coalesced: ev.Coalesced}
		switch {
		case ev.Resync:
			fr.Type = "resync"
			emit(fr)
			return
		case ev.Init:
			fr.Type = "init"
		default:
			fr.Type = "delta"
		}
		// a newer collection still holds every ID the event names: a
		// removed document's IDs stay allocated to its tombstone
		coll := s.ix.Snapshot().Collection()
		fr.Add = make([]queryResult, len(ev.Add))
		for i, m := range ev.Add {
			fr.Add[i] = queryResult{Doc: m.Doc, Local: localOf(coll, m.Element), Tag: m.Tag, Score: m.Score}
		}
		fr.Remove = make([]queryResult, len(ev.Remove))
		for i, id := range ev.Remove {
			fr.Remove[i] = queryResult{Doc: coll.DocName(coll.DocOf(id)), Local: localOf(coll, id), Tag: coll.Tag(id)}
		}
		emit(fr)
	}
}
