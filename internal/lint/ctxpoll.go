package lint

// ctxpoll enforces the cooperative-cancellation contract introduced with
// RunContext: a cancel (client disconnect, deadline, SIGINT) must abort a
// multi-second sweep between partitions, not after it. Mechanically: inside
// the engine packages, any loop whose body dispatches a kernel — an SpMV/
// SpMM entry — must also poll a stop signal in that body. A poll is any of:
//
//   - an atomic load (.Load()) — the engine's stop flag idiom;
//   - a controller check (.stopped() / .Stopped());
//   - a ctx check (.Done() / .Err());
//   - a call to parallelFor with a non-nil stop argument (parallelFor polls
//     internally before every task).
//
// Function literals inside the loop body are searched too: the kernel
// dispatch in the engine lives inside parallelFor callbacks, and a kernel
// call hidden in a closure is still this loop's work. Test files are exempt
// (differential tests drive kernels in tight loops on purpose).

import (
	"flag"
	"go/ast"
	"strconv"
	"strings"

	"graphmat/internal/lint/analysis"
)

// CtxpollAnalyzer is the ctxpoll analyzer.
var CtxpollAnalyzer = newCtxpoll()

func newCtxpoll() *analysis.Analyzer {
	a := &analysis.Analyzer{
		Name: "ctxpoll",
		Doc: "require partition loops that dispatch kernels to poll the stop flag or ctx\n\n" +
			"Cooperative cancellation only works if every long loop polls. A loop\n" +
			"that sweeps partitions through a kernel without checking the stop\n" +
			"signal turns one cancel into a full-superstep wait.",
		Run: runCtxpoll,
	}
	a.Flags.Init("ctxpoll", flag.ContinueOnError)
	a.Flags.String("pkgs", "graphmat/internal/core,graphmat/internal/kernels",
		"comma-separated package scope (path or suffix) the polling rule applies to")
	a.Flags.String("funcs", "spmv*,spmm*",
		"comma-separated kernel entry points (name or prefix*) whose dispatch loops must poll")
	a.Flags.String("wrappers", "parallelFor:2,Run:1,RunOptions:1",
		"comma-separated name:argIndex pairs of dispatch helpers that poll internally when the given argument is non-nil")
	return a
}

func runCtxpoll(pass *analysis.Pass) error {
	scope := pass.Analyzer.Flags.Lookup("pkgs").Value.String()
	if !pkgInScope(pass.Pkg.Path(), scope) {
		return nil
	}
	kernels := pass.Analyzer.Flags.Lookup("funcs").Value.String()
	wrappers := parseWrappers(pass.Analyzer.Flags.Lookup("wrappers").Value.String())

	for _, file := range pass.Files {
		if isTestFile(pass.Fset, file) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch n := n.(type) {
			case *ast.ForStmt:
				body = n.Body
			case *ast.RangeStmt:
				body = n.Body
			default:
				return true
			}
			if loopDispatchesKernel(pass, body, kernels) && !loopPolls(pass, body, wrappers) {
				pass.Reportf(n.Pos(),
					"loop dispatches a kernel without polling the stop flag or ctx: cancellation waits for the whole sweep (poll an atomic stop flag, ctx.Done(), or route through parallelFor with a stop argument)")
			}
			return true
		})
	}
	return nil
}

// parseWrappers parses "name:argIndex" pairs.
func parseWrappers(s string) map[string]int {
	out := map[string]int{}
	for _, pair := range strings.Split(s, ",") {
		name, idx, ok := strings.Cut(strings.TrimSpace(pair), ":")
		if !ok {
			continue
		}
		if n, err := strconv.Atoi(idx); err == nil && n >= 0 {
			out[name] = n
		}
	}
	return out
}

// loopDispatchesKernel reports whether the loop body calls a kernel entry,
// descending into function literals (the engine's kernel calls live inside
// parallelFor callbacks).
func loopDispatchesKernel(pass *analysis.Pass, body *ast.BlockStmt, kernels string) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name := calleeName(pass.TypesInfo, call)
		if matchNamePatterns(name, kernels) {
			found = true
		}
		return true
	})
	return found
}

// loopPolls reports whether the loop body contains a poll.
func loopPolls(pass *analysis.Pass, body *ast.BlockStmt, wrappers map[string]int) bool {
	polls := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			switch sel.Sel.Name {
			case "Load", "stopped", "Stopped", "Done", "Err":
				polls = true
			}
		}
		if idx, ok := wrappers[calleeName(pass.TypesInfo, call)]; ok && idx < len(call.Args) {
			if id, isIdent := call.Args[idx].(*ast.Ident); !isIdent || id.Name != "nil" {
				polls = true
			}
		}
		return true
	})
	return polls
}
