package analysis

import (
	"fmt"
	"runtime"
	"sync"
)

// RunSeeds calls trial for seeds seedBase..seedBase+trials-1 across up to
// `workers` goroutines (0 = GOMAXPROCS) and returns the results in seed
// order. As long as trial shares nothing between calls, the results are the
// same for every worker count.
func RunSeeds(trials int, seedBase int64, workers int, trial func(seed int64) (*TrialResult, error)) ([]*TrialResult, error) {
	if trials <= 0 {
		return nil, nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > trials {
		workers = trials
	}

	results := make([]*TrialResult, trials)
	errs := make([]error, trials)
	var wg sync.WaitGroup
	next := make(chan int)

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				results[i], errs[i] = trial(seedBase + int64(i))
			}
		}()
	}
	for i := 0; i < trials; i++ {
		next <- i
	}
	close(next)
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("analysis: trial %d: %w", i, err)
		}
	}
	return results, nil
}
