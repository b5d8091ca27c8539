package server

import (
	"expvar"
	"fmt"
	"net/http"
	"net/http/pprof"
	"time"
)

// DebugHandler serves the operator's HTTP surface:
//
//	/metrics      the node's registry as "name value" text, sys.metrics' rows
//	/slowlog      the slow-op ring as plain text, oldest first
//	/debug/pprof  the standard Go profiler endpoints
//	/debug/vars   expvar (Go runtime memstats and cmdline)
//
// Its requests skip admission control, so it is the view that answers
// while the node is saturated; a sys.* statement is admitted like any
// other. It is served only when explicitly bound (scdb-server's -debug-addr);
// the handler has no authentication and exposes statement text through
// the slow-op log, so bind it to localhost or a management network.
func (s *Server) DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, s.reg.Dump())
	})
	mux.HandleFunc("/slowlog", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		entries, total := s.slow.Snapshot()
		fmt.Fprintf(w, "# threshold=%s total=%d retained=%d\n",
			s.slow.Threshold(), total, len(entries))
		for _, e := range entries {
			line := fmt.Sprintf("%s %s %s", e.Start.Format(time.RFC3339Nano), e.Dur, e.Op)
			if e.Detail != "" {
				line += " " + e.Detail
			}
			if e.Err != "" {
				line += " err=" + e.Err
			}
			fmt.Fprintln(w, line)
		}
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	return mux
}
