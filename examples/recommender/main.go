// Recommender: collaborative filtering on a synthetic Netflix-style ratings
// graph (the paper's §3-III workload). Factorizes the bipartite ratings
// matrix with gradient descent and uses the latent factors to predict
// ratings and recommend unseen items for a user.
//
//	go run ./examples/recommender [-users 20000] [-items 500] [-iters 15]
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"sort"
	"time"

	"graphmat/algorithms"
	"graphmat/datagen"
)

func main() {
	users := flag.Uint("users", 20000, "number of users")
	items := flag.Uint("items", 500, "number of items")
	ratings := flag.Int("ratings", 300000, "number of ratings")
	iters := flag.Int("iters", 15, "gradient-descent iterations")
	flag.Parse()

	fmt.Printf("generating %d ratings from %d users over %d items (Zipf item popularity)\n",
		*ratings, *users, *items)
	raw := datagen.Bipartite(datagen.BipartiteOptions{
		Users: uint32(*users), Items: uint32(*items), Ratings: *ratings, Seed: 7,
	})
	// Keep a copy of the ratings to evaluate training error later (the CF
	// graph builder consumes its input).
	held := raw.Clone()
	held.SortRowMajor()
	held.DedupKeepFirst()

	start := time.Now()
	g, err := algorithms.NewCFGraph(raw, 0)
	if err != nil {
		panic(err)
	}
	fmt.Printf("built bipartite graph: %d vertices, %d directed rating edges (%.2fs)\n",
		g.NumVertices(), g.NumEdges(), time.Since(start).Seconds())

	start = time.Now()
	factors, stats, err := algorithms.CFContext(context.Background(), g, algorithms.CFOptions{
		Iterations: *iters, Gamma: 0.002, Lambda: 0.05, InitSeed: 1,
	}, nil)
	if err != nil {
		panic(err)
	}
	el := time.Since(start)
	fmt.Printf("factorized into %d latent dimensions in %.3fs (%.2fms/iteration, %d sweeps)\n",
		algorithms.LatentDim, el.Seconds(), el.Seconds()*1e3/float64(stats.Iterations), stats.Iterations)

	predict := func(user, item uint32) float64 {
		var dot float64
		pu, pv := factors[user], factors[item]
		for k := 0; k < algorithms.LatentDim; k++ {
			dot += float64(pu[k]) * float64(pv[k])
		}
		return dot
	}

	// Training error over the observed ratings.
	var se float64
	for _, e := range held.Entries {
		d := float64(e.Val) - predict(e.Row, e.Col)
		se += d * d
	}
	fmt.Printf("training RMSE: %.4f over %d ratings\n",
		rmse(se, len(held.Entries)), len(held.Entries))

	// Recommend: pick the most active user and score items they have not
	// rated.
	rated := map[uint32]map[uint32]bool{}
	for _, e := range held.Entries {
		if rated[e.Row] == nil {
			rated[e.Row] = map[uint32]bool{}
		}
		rated[e.Row][e.Col] = true
	}
	var heavyUser uint32
	for u, m := range rated {
		if len(m) > len(rated[heavyUser]) {
			heavyUser = u
		}
	}
	type rec struct {
		item  uint32
		score float64
	}
	var recs []rec
	for it := uint32(*users); it < uint32(*users)+uint32(*items); it++ {
		if !rated[heavyUser][it] {
			recs = append(recs, rec{it, predict(heavyUser, it)})
		}
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].score > recs[j].score })
	fmt.Printf("top recommendations for user %d (%d items already rated):\n",
		heavyUser, len(rated[heavyUser]))
	for i := 0; i < 5 && i < len(recs); i++ {
		fmt.Printf("  item %-6d predicted rating %.2f\n", recs[i].item-uint32(*users), recs[i].score)
	}
}

func rmse(se float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return math.Sqrt(se / float64(n))
}
