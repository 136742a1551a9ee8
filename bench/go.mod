// The benchmark is a module of its own so that the repo's `go build ./...`
// and `go test ./...` never compile or run it; the import path stays under
// repro/ so it may import repro/internal/... (Go's internal rule is by path).
module repro/bench

go 1.24

require repro v0.0.0

replace repro => ../
