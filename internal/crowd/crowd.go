// Package crowd implements FS.8: "extend the crowdsourcing formalism to
// identify and assess the necessity to fetch incomplete data given certain
// qualitative (to improve the accuracy and coverage of answers) or
// quantitative (to find information faster) cost functions."
//
// Human workers are simulated (the substitution DESIGN.md documents): each
// worker has an accuracy and a per-task cost, and answers a task correctly
// with probability accuracy, otherwise picking a wrong candidate uniformly.
// Everything is driven by an explicit seed, so experiments are reproducible.
//
// Two allocation strategies are provided: uniform (every task gets the same
// number of asks — the quantitative/cheap baseline) and adaptive (asks
// concentrate on tasks whose current vote is still contested — the
// qualitative strategy, buying accuracy where it is needed).
package crowd

import (
	"fmt"
	"math/rand"
	"sort"

	"scdb/internal/model"
)

// Task is one question posed to the crowd: a set of candidate answers and
// (for the simulator only) the ground truth.
type Task struct {
	ID         string
	Candidates []model.Value
	// Truth indexes Candidates; the simulator uses it to generate worker
	// answers and the evaluation uses it to score accuracy. Real crowds
	// would not know it.
	Truth int
}

// Worker is one simulated crowd worker.
type Worker struct {
	ID string
	// Accuracy is the probability of answering correctly.
	Accuracy float64
	// Cost is charged per answered task.
	Cost float64
}

// Simulator runs tasks against a simulated worker pool.
type Simulator struct {
	workers []Worker
	rng     *rand.Rand
}

// NewSimulator creates a simulator with the given deterministic seed.
func NewSimulator(seed int64) *Simulator {
	return &Simulator{rng: rand.New(rand.NewSource(seed))}
}

// AddWorker registers a worker.
func (s *Simulator) AddWorker(w Worker) { s.workers = append(s.workers, w) }

// Ask has the worker answer the task: the truth with probability
// w.Accuracy, otherwise a uniformly chosen wrong candidate.
func (s *Simulator) Ask(t Task, w Worker) model.Value {
	if len(t.Candidates) == 0 {
		return model.Null()
	}
	if len(t.Candidates) == 1 || s.rng.Float64() < w.Accuracy {
		return t.Candidates[t.Truth]
	}
	wrong := s.rng.Intn(len(t.Candidates) - 1)
	if wrong >= t.Truth {
		wrong++
	}
	return t.Candidates[wrong]
}

// Vote aggregates answers by majority, returning the winner and its vote
// share. Ties break by value order for determinism.
func Vote(answers []model.Value) (model.Value, float64) {
	if len(answers) == 0 {
		return model.Null(), 0
	}
	counts := map[uint64]int{}
	vals := map[uint64]model.Value{}
	for _, a := range answers {
		h := a.Hash()
		counts[h]++
		vals[h] = a
	}
	type entry struct {
		v model.Value
		n int
	}
	var list []entry
	for h, n := range counts {
		list = append(list, entry{vals[h], n})
	}
	sort.Slice(list, func(i, j int) bool {
		if list[i].n != list[j].n {
			return list[i].n > list[j].n
		}
		return model.Less(list[i].v, list[j].v)
	})
	return list[0].v, float64(list[0].n) / float64(len(answers))
}

// Allocation selects the budget-spending strategy.
type Allocation int

const (
	// AllocUniform spreads asks evenly: round-robin one ask per task per
	// round until the budget runs out.
	AllocUniform Allocation = iota
	// AllocAdaptive spends the first round uniformly, then concentrates
	// the remaining budget on the tasks with the most contested votes.
	AllocAdaptive
)

// String names the allocation strategy.
func (a Allocation) String() string {
	switch a {
	case AllocUniform:
		return "uniform"
	case AllocAdaptive:
		return "adaptive"
	}
	return fmt.Sprintf("alloc(%d)", int(a))
}

// Outcome reports one budgeted resolution run.
type Outcome struct {
	// Answers maps task ID to the aggregated answer.
	Answers map[string]model.Value
	// Agreement maps task ID to the winning vote share.
	Agreement map[string]float64
	// Asks counts the total questions asked; Spent the total cost.
	Asks  int
	Spent float64
	// Correct counts answers matching ground truth (evaluation only).
	Correct int
}

// Accuracy returns Correct over the task count.
func (o Outcome) Accuracy(total int) float64 {
	if total == 0 {
		return 0
	}
	return float64(o.Correct) / float64(total)
}

// Resolve answers the tasks within budget using the given strategy.
// Workers are used round-robin in registration order.
func (s *Simulator) Resolve(tasks []Task, budget float64, alloc Allocation) Outcome {
	out := Outcome{Answers: map[string]model.Value{}, Agreement: map[string]float64{}}
	if len(s.workers) == 0 || len(tasks) == 0 {
		return out
	}
	answers := make(map[string][]model.Value, len(tasks))
	wi := 0
	ask := func(t Task) bool {
		w := s.workers[wi%len(s.workers)]
		if out.Spent+w.Cost > budget {
			return false
		}
		wi++
		out.Spent += w.Cost
		out.Asks++
		answers[t.ID] = append(answers[t.ID], s.Ask(t, w))
		return true
	}

	// Round one: everyone gets one ask (coverage first).
	for _, t := range tasks {
		if !ask(t) {
			break
		}
	}

	switch alloc {
	case AllocUniform:
		for {
			progressed := false
			for _, t := range tasks {
				if ask(t) {
					progressed = true
				} else {
					progressed = false
					break
				}
			}
			if !progressed {
				break
			}
		}
	case AllocAdaptive:
		// The quantitative cost function (FS.8): stop asking once a task
		// is confidently answered, concentrate remaining asks on contested
		// tasks, and cap per-task spend so hopeless tasks cannot absorb
		// the budget. Adaptive may finish under budget — that saving is
		// the point.
		const (
			confident = 0.75
			minAsks   = 3
			maxAsks   = 5
		)
		for {
			// Most contested unfrozen task first (lowest agreement, then
			// fewest asks).
			best := -1
			bestAgree := 2.0
			for i, t := range tasks {
				n := len(answers[t.ID])
				if n == 0 || n >= maxAsks {
					continue
				}
				_, agree := Vote(answers[t.ID])
				if agree >= confident && n >= minAsks {
					continue
				}
				if agree < bestAgree || (agree == bestAgree && best >= 0 && n < len(answers[tasks[best].ID])) {
					bestAgree = agree
					best = i
				}
			}
			if best < 0 {
				break // everything confident or capped
			}
			if !ask(tasks[best]) {
				break // budget exhausted
			}
		}
	}

	for _, t := range tasks {
		if len(answers[t.ID]) == 0 {
			continue
		}
		v, agree := Vote(answers[t.ID])
		out.Answers[t.ID] = v
		out.Agreement[t.ID] = agree
		if len(t.Candidates) > 0 && model.Equal(v, t.Candidates[t.Truth]) {
			out.Correct++
		}
	}
	return out
}
