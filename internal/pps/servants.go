// Package pps implements the Printing Pipeline Simulator — the paper's §4
// CORBA example application: an ORBlite-based system of 11 components
// ("The PPS system is ORBlite based and consists of 11 components")
// flexibly configured into multiple processes. A print job flows from
// submission through spooling, interpretation, rendering, color
// conversion, halftoning, compression, and marking to finishing, with
// asynchronous status notification and job tracking on the side.
//
// Servants implement the generated ppsgen interfaces and consume real CPU
// through an injectable work function, so the latency and CPU experiments
// observe genuine behaviour.
package pps

import (
	"fmt"
	"sync"

	"causeway/internal/pps/ppsgen"
)

// WorkFunc burns CPU proportional to units; injected so tests can use
// deterministic virtual charging and benches real spinning.
type WorkFunc func(units int)

// submitter is component 1: the front door.
type submitter struct {
	work     WorkFunc
	spooler  ppsgen.Spooler
	tracker  ppsgen.JobTracker
	notifier ppsgen.Notifier
}

var _ ppsgen.JobSubmitter = (*submitter)(nil)

func (s *submitter) Submit(job ppsgen.Job) (int32, error) {
	if job.Pages <= 0 {
		return 0, &ppsgen.JobRejected{Job: job.Id, Reason: "job has no pages"}
	}
	s.work(1)
	if err := s.tracker.Record(job.Id, "submitted"); err != nil {
		return 0, err
	}
	if err := s.notifier.Notify(job.Id, "accepted"); err != nil {
		return 0, err
	}
	if err := s.spooler.Spool(job); err != nil {
		return 0, err
	}
	return job.Id, nil
}

// spooler is component 2: queues jobs and orchestrates the per-page path.
type spooler struct {
	work        WorkFunc
	interpreter ppsgen.Interpreter
	renderer    ppsgen.Renderer
	color       ppsgen.ColorConverter
	halftoner   ppsgen.Halftoner
	compressor  ppsgen.Compressor
	engine      ppsgen.MarkingEngine
	finisher    ppsgen.Finisher
	tracker     ppsgen.JobTracker

	mu    sync.Mutex
	depth int32
}

var _ ppsgen.Spooler = (*spooler)(nil)

func (s *spooler) Spool(job ppsgen.Job) error {
	s.mu.Lock()
	s.depth++
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.depth--
		s.mu.Unlock()
	}()
	s.work(1)
	if err := s.tracker.Record(job.Id, "spooled"); err != nil {
		return err
	}
	for page := int32(0); page < job.Pages; page++ {
		if _, err := s.interpreter.Interpret(job, page); err != nil {
			return err
		}
		sheet, err := s.renderer.Render(job, page)
		if err != nil {
			return err
		}
		if job.Color {
			if sheet, err = s.color.Convert(sheet); err != nil {
				return err
			}
		}
		if sheet, err = s.halftoner.Halftone(sheet); err != nil {
			return err
		}
		if sheet, err = s.compressor.Compress(sheet); err != nil {
			return err
		}
		if err := s.engine.Mark(sheet); err != nil {
			return err
		}
	}
	if err := s.finisher.Finish(job.Id, job.Pages); err != nil {
		return err
	}
	return s.tracker.Record(job.Id, "done")
}

func (s *spooler) QueueDepth() (int32, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.depth, nil
}

// interpreter is component 3: PDL parsing into display lists.
type interpreter struct{ work WorkFunc }

var _ ppsgen.Interpreter = (*interpreter)(nil)

func (i *interpreter) Interpret(job ppsgen.Job, page int32) (int32, error) {
	i.work(3)
	// Display-list length scales with resolution.
	return job.Dpi/10 + page, nil
}

// renderer is component 4: rasterization.
type renderer struct {
	work WorkFunc
}

// rasterBytes sizes the produced sheet payloads.
const rasterBytes = 256

var _ ppsgen.Renderer = (*renderer)(nil)

func (r *renderer) Render(job ppsgen.Job, page int32) (ppsgen.Sheet, error) {
	r.work(5)
	raster := make([]byte, rasterBytes)
	for i := range raster {
		raster[i] = byte(int(job.Id) + int(page) + i)
	}
	return ppsgen.Sheet{Job: job.Id, Page: page, Raster: raster}, nil
}

// colorConverter is component 5.
type colorConverter struct{ work WorkFunc }

var _ ppsgen.ColorConverter = (*colorConverter)(nil)

func (c *colorConverter) Convert(sheet ppsgen.Sheet) (ppsgen.Sheet, error) {
	c.work(4)
	for i := range sheet.Raster {
		sheet.Raster[i] ^= 0x5A
	}
	return sheet, nil
}

// halftoner is component 6.
type halftoner struct{ work WorkFunc }

var _ ppsgen.Halftoner = (*halftoner)(nil)

func (h *halftoner) Halftone(sheet ppsgen.Sheet) (ppsgen.Sheet, error) {
	h.work(3)
	for i := range sheet.Raster {
		if sheet.Raster[i] >= 0x80 {
			sheet.Raster[i] = 0xFF
		} else {
			sheet.Raster[i] = 0
		}
	}
	return sheet, nil
}

// compressor is component 7: run-length band compression.
type compressor struct{ work WorkFunc }

var _ ppsgen.Compressor = (*compressor)(nil)

func (c *compressor) Compress(sheet ppsgen.Sheet) (ppsgen.Sheet, error) {
	c.work(2)
	out := make([]byte, 0, len(sheet.Raster)/2+2)
	for i := 0; i < len(sheet.Raster); {
		j := i
		for j < len(sheet.Raster) && sheet.Raster[j] == sheet.Raster[i] && j-i < 255 {
			j++
		}
		out = append(out, byte(j-i), sheet.Raster[i])
		i = j
	}
	sheet.Raster = out
	return sheet, nil
}

// markingEngine is component 8.
type markingEngine struct{ work WorkFunc }

var _ ppsgen.MarkingEngine = (*markingEngine)(nil)

func (m *markingEngine) Mark(sheet ppsgen.Sheet) error {
	if len(sheet.Raster) == 0 {
		return &ppsgen.EngineFault{Unit: "feeder", Code: 13}
	}
	m.work(6)
	return nil
}

func (m *markingEngine) Coverage(sheet ppsgen.Sheet) (float64, error) {
	m.work(1)
	dark := 0
	for _, b := range sheet.Raster {
		if b != 0 {
			dark++
		}
	}
	if len(sheet.Raster) == 0 {
		return 0, nil
	}
	return float64(dark) / float64(len(sheet.Raster)), nil
}

// finisher is component 9.
type finisher struct{ work WorkFunc }

var _ ppsgen.Finisher = (*finisher)(nil)

func (f *finisher) Finish(job int32, pages int32) error {
	f.work(2)
	return nil
}

// jobTracker is component 10.
type jobTracker struct {
	work WorkFunc
	mu   sync.Mutex
	st   map[int32]string
}

var _ ppsgen.JobTracker = (*jobTracker)(nil)

func newJobTracker(work WorkFunc) *jobTracker {
	return &jobTracker{work: work, st: make(map[int32]string)}
}

func (t *jobTracker) Record(job int32, state string) error {
	t.work(1)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.st[job] = state
	return nil
}

func (t *jobTracker) Status(job int32) (string, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	st, ok := t.st[job]
	if !ok {
		return "", fmt.Errorf("unknown job %d", job)
	}
	return st, nil
}

// notifier is component 11: asynchronous status events.
type notifier struct {
	work WorkFunc
	mu   sync.Mutex
	log  []string
}

var _ ppsgen.Notifier = (*notifier)(nil)

func (n *notifier) Notify(job int32, event string) error {
	n.work(1)
	n.mu.Lock()
	defer n.mu.Unlock()
	n.log = append(n.log, fmt.Sprintf("%d:%s", job, event))
	return nil
}

// Events returns the notifications received so far.
func (n *notifier) Events() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]string, len(n.log))
	copy(out, n.log)
	return out
}
