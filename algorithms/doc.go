// Package algorithms provides the five graph algorithms of the GraphMat
// paper (§3) written as GraphMat vertex programs — PageRank, breadth-first
// search, single-source shortest paths, triangle counting and collaborative
// filtering — plus connected components and degree computation as
// extensions.
//
// Each algorithm exposes:
//
//   - the Program type itself (e.g. SSSPProgram), for users composing their
//     own pipelines;
//   - a New*Graph constructor that applies the paper's dataset preprocessing
//     (§5.1) and builds the property graph, and a New*Store twin that builds
//     the same graph as a versioned store for live updates;
//   - one entry point, Run<Algo>(ctx, g, ...required args, opts...) (e.g.
//     RunSSSP), that initializes vertex state, executes the program and
//     extracts results. Collaborative filtering, which is not in the
//     registry, keeps its own CFContext with a CFOptions struct.
//
// Every run is a cancelable, observable session: a context.Context stops
// the engine cooperatively mid-run, and an optional Observer (WithObserver)
// receives one progress report per superstep — with iteration numbers
// counting the algorithm's global supersteps even for drivers that invoke
// the engine one superstep at a time. Stopped runs return their partial
// results alongside the stop cause, and Stats.Reason classifies every
// ending. The options (WithIterations, WithWorkspace, WithConfig, ...) are
// shared by every entry point; an algorithm ignores the ones it has no use
// for. The registry mirrors this: Instance.RunContext is the session form of
// Instance.Run, and both call the same Run<Algo>.
//
// Every entry point accepts the engine's kernel mode (WithMode or
// WithConfig, and the registry's global "mode" parameter): Pull probes every
// stored column per superstep, Push iterates the frontier (a true SpMSpV),
// and Auto — the default — switches per superstep by frontier density
// against the configured PushThreshold. Modes are bit-identical in results
// and differ only in speed: push wins high-diameter, sparse-frontier
// traversals (BFS and SSSP on road networks, low-reach sources on
// scale-free graphs), pull wins dense iterative ranking (PageRank, PPR,
// HITS, where every vertex is active every superstep), and Auto tracks the
// winner, recording its choices in Stats.PushSupersteps/PullSupersteps.
//
// The benchmark harness builds graphs once and calls the entry points
// repeatedly, so graph construction time is excluded from measurements
// exactly as the paper excludes load time.
package algorithms
