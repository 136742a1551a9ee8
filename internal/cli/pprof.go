package cli

import (
	"flag"
	"net"
	"net/http"
	"net/http/pprof"
)

// RegisterPprof defines the shared -pprof flag on fs: an address to
// serve net/http/pprof on, empty (the default) meaning no profiling
// server. The bench workflow points `go tool pprof` at it to attribute
// time between the pipeline's stages.
func RegisterPprof(fs *flag.FlagSet) *string {
	return fs.String("pprof", "",
		"serve net/http/pprof on this address (e.g. 'localhost:6060'); empty = no profiling server")
}

// StartPprof starts the profiling server for a non-empty -pprof value.
// It returns the bound address (useful with a ':0' port) and a stop
// function; an empty addr is a no-op returning ("", no-op, nil). Only
// the pprof handlers are mounted — on its own mux, never the global
// one — so the debug port exposes profiles and nothing else.
func StartPprof(addr string) (bound string, stop func(), err error) {
	if addr == "" {
		return "", func() {}, nil
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, Usagef("-pprof %s: %v", addr, err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln) //nolint:errcheck // Serve returns ErrServerClosed on stop
	return ln.Addr().String(), func() { srv.Close() }, nil
}
