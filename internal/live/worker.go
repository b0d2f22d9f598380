package live

import (
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/nn"
	"repro/internal/storage"
	"repro/internal/transport"
)

// rpcTimeout bounds every worker-issued RPC; a stuck parameter server
// must surface as an error, not a hang.
const rpcTimeout = 10 * time.Second

// WorkerConfig describes one live worker.
type WorkerConfig struct {
	Name           string
	PSAddrs        []string // one per shard, in shard order
	ControllerAddr string
	Chief          bool

	Classes   int
	Features  int
	BatchSize int
	// DataSeed seeds this worker's private slice of the synthetic
	// dataset (each worker holds its own data subset, §II).
	DataSeed int64

	// CheckpointInterval in global steps; 0 disables. Only the chief
	// checkpoints.
	CheckpointInterval int64
	// CheckpointDir backs the storage.Store; required when
	// checkpointing is enabled.
	CheckpointDir string
}

// Worker is a live training worker: pull parameters, compute a real
// gradient on its data shard, push to every parameter-server shard,
// repeat. One worker is the chief and also checkpoints.
type Worker struct {
	cfg     WorkerConfig
	model   *nn.Model
	dataset *nn.Dataset
	store   *storage.Store

	control  *transport.Server
	psConns  []*transport.Client
	ctrlConn *transport.Client

	chief atomic.Bool

	started atomic.Bool
	stop    chan struct{}
	done    chan struct{}
	// stopOnce and closeOnce make Stop/Close/Revoke idempotent.
	stopOnce  sync.Once
	closeOnce sync.Once

	steps      atomic.Int64 // local steps completed
	globalStep atomic.Int64 // shard-0 version after our last push
	lastLoss   atomic.Value // float64
	ckptCount  atomic.Int64

	runErr atomic.Value // error
}

// NewWorker constructs and wires a worker: it starts the control
// endpoint, connects to every parameter server and the controller,
// and registers itself. Call Start to begin training.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("live: worker needs a name")
	}
	if len(cfg.PSAddrs) == 0 {
		return nil, fmt.Errorf("live: worker needs at least one parameter server")
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 32
	}
	if cfg.CheckpointInterval > 0 && cfg.CheckpointDir == "" {
		return nil, fmt.Errorf("live: checkpointing enabled but no directory")
	}
	model, err := nn.NewModel(cfg.Classes, cfg.Features)
	if err != nil {
		return nil, err
	}
	dataset, err := nn.NewDataset(cfg.Classes, cfg.Features, 4, cfg.DataSeed)
	if err != nil {
		return nil, err
	}
	w := &Worker{
		cfg:     cfg,
		model:   model,
		dataset: dataset,
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	w.lastLoss.Store(0.0)
	w.chief.Store(cfg.Chief)

	if cfg.CheckpointDir != "" {
		w.store, err = storage.NewStore(cfg.CheckpointDir)
		if err != nil {
			return nil, err
		}
	}

	w.control, err = transport.NewServer("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	w.control.Handle(methodPromote, w.handlePromote)

	for _, addr := range cfg.PSAddrs {
		conn, err := transport.Dial(addr, rpcTimeout)
		if err != nil {
			w.closeConns()
			return nil, fmt.Errorf("live: connecting to PS %s: %w", addr, err)
		}
		w.psConns = append(w.psConns, conn)
	}
	if cfg.ControllerAddr != "" {
		w.ctrlConn, err = transport.Dial(cfg.ControllerAddr, rpcTimeout)
		if err != nil {
			w.closeConns()
			return nil, fmt.Errorf("live: connecting to controller: %w", err)
		}
		err = w.ctrlConn.Call(methodRegister, registerRequest{
			Worker:      cfg.Name,
			ControlAddr: w.control.Addr(),
			Chief:       cfg.Chief,
		}, nil, rpcTimeout)
		if err != nil {
			w.closeConns()
			return nil, fmt.Errorf("live: registering with controller: %w", err)
		}
	}
	return w, nil
}

func (w *Worker) closeConns() {
	for _, c := range w.psConns {
		c.Close()
	}
	if w.ctrlConn != nil {
		w.ctrlConn.Close()
	}
	if w.control != nil {
		w.control.Close()
	}
}

func (w *Worker) handlePromote(json.RawMessage) (any, error) {
	w.chief.Store(true)
	return nil, nil
}

// Name returns the worker's cluster name.
func (w *Worker) Name() string { return w.cfg.Name }

// IsChief reports whether this worker currently owns checkpoint duty.
func (w *Worker) IsChief() bool { return w.chief.Load() }

// Steps returns how many local steps the worker has completed.
func (w *Worker) Steps() int64 { return w.steps.Load() }

// GlobalStep returns the shard-0 version after this worker's latest
// push (the cluster's global step as this worker saw it).
func (w *Worker) GlobalStep() int64 { return w.globalStep.Load() }

// LastLoss returns the most recent mini-batch loss.
func (w *Worker) LastLoss() float64 { return w.lastLoss.Load().(float64) }

// Checkpoints returns how many checkpoints this worker has written.
func (w *Worker) Checkpoints() int64 { return w.ckptCount.Load() }

// Err returns the error that stopped the training loop, if any.
func (w *Worker) Err() error {
	if v := w.runErr.Load(); v != nil {
		return v.(error)
	}
	return nil
}

// Start launches the training loop. It returns immediately and is
// idempotent; use Stop, Revoke, or Wait to manage the lifecycle.
func (w *Worker) Start() {
	if !w.started.CompareAndSwap(false, true) {
		return
	}
	go w.run()
}

// Stop halts the training loop but keeps connections open, so callers
// can still evaluate or restore through this worker. Use Close for a
// full teardown. Stopping a worker that never started is a no-op.
func (w *Worker) Stop() {
	w.stopOnce.Do(func() { close(w.stop) })
	if w.started.Load() {
		<-w.done
	}
}

// Close stops training and closes every connection and the control
// endpoint. Close is idempotent.
func (w *Worker) Close() {
	w.Stop()
	w.closeOnce.Do(w.closeConns)
}

// Revoke simulates a preemption: the shutdown-script hook fires a
// revocation notice to the controller (triggering chief takeover if
// needed), then the worker halts and disconnects (§II steps 6–8).
func (w *Worker) Revoke() error {
	var notifyErr error
	if w.ctrlConn != nil {
		notifyErr = w.ctrlConn.Call(methodRevoked, revokedNotice{Worker: w.cfg.Name}, nil, rpcTimeout)
	}
	w.Close()
	return notifyErr
}

// run is the training loop.
func (w *Worker) run() {
	defer close(w.done)
	nextCkpt := w.cfg.CheckpointInterval
	for {
		select {
		case <-w.stop:
			return
		default:
		}
		globalStep, err := w.trainStep()
		if err != nil {
			w.runErr.Store(err)
			return
		}
		if w.chief.Load() && w.cfg.CheckpointInterval > 0 && globalStep >= nextCkpt {
			if err := w.checkpoint(globalStep); err != nil {
				w.runErr.Store(err)
				return
			}
			nextCkpt = globalStep + w.cfg.CheckpointInterval
		}
	}
}

// trainStep pulls, computes, and pushes once, returning the global
// step after the push.
func (w *Worker) trainStep() (int64, error) {
	params, _, err := w.pullAll()
	if err != nil {
		return 0, fmt.Errorf("live: %s pull: %w", w.cfg.Name, err)
	}
	w.model.SetParams(params)
	batch := w.dataset.Sample(w.cfg.BatchSize)
	w.lastLoss.Store(w.model.Loss(batch))
	grad := w.model.Gradient(batch)

	version, err := w.pushAll(grad)
	if err != nil {
		return 0, fmt.Errorf("live: %s push: %w", w.cfg.Name, err)
	}
	w.steps.Add(1)
	w.globalStep.Store(version)
	return version, nil
}

// pullAll fetches every shard and assembles the full parameter
// vector; it returns shard 0's version as the global step.
func (w *Worker) pullAll() ([]float64, int64, error) {
	total := w.model.ParamCount()
	out := make([]float64, 0, total)
	var version int64
	for i, conn := range w.psConns {
		var resp pullResponse
		if err := conn.Call(methodPull, pullRequest{Worker: w.cfg.Name}, &resp, rpcTimeout); err != nil {
			return nil, 0, err
		}
		if i == 0 {
			version = resp.Version
		}
		out = append(out, resp.Params...)
	}
	if len(out) != total {
		return nil, 0, fmt.Errorf("live: assembled %d params, model has %d", len(out), total)
	}
	return out, version, nil
}

// pushAll splits the gradient across shards and pushes each.
func (w *Worker) pushAll(grad []float64) (int64, error) {
	n := len(w.psConns)
	var version int64
	for i, conn := range w.psConns {
		lo, hi := shardRange(len(grad), n, i)
		var resp pushResponse
		if err := conn.Call(methodPush, pushRequest{Worker: w.cfg.Name, Grad: grad[lo:hi]}, &resp, rpcTimeout); err != nil {
			return 0, err
		}
		if i == 0 {
			version = resp.Version
		}
	}
	return version, nil
}

// checkpoint pulls a fresh parameter snapshot and saves it (§II step
// 5; training pauses on the chief while it runs, §IV-B).
func (w *Worker) checkpoint(globalStep int64) error {
	params, _, err := w.pullAll()
	if err != nil {
		return fmt.Errorf("live: checkpoint pull: %w", err)
	}
	err = w.store.Save(params, storage.Meta{
		ModelName: "softmax",
		Classes:   w.cfg.Classes,
		Features:  w.cfg.Features,
		Step:      globalStep,
		Chief:     w.cfg.Name,
	})
	if err != nil {
		return fmt.Errorf("live: checkpoint save: %w", err)
	}
	w.ckptCount.Add(1)
	return nil
}

// RestoreLatest loads the newest checkpoint from the store and
// installs it into the parameter servers — the recovery path after a
// full-cluster restart.
func (w *Worker) RestoreLatest() (int64, error) {
	if w.store == nil {
		return 0, fmt.Errorf("live: worker has no checkpoint store")
	}
	params, meta, ok, err := w.store.LoadLatest()
	if err != nil {
		return 0, err
	}
	if !ok {
		return 0, fmt.Errorf("live: no checkpoint to restore")
	}
	if len(params) != w.model.ParamCount() {
		return 0, fmt.Errorf("live: checkpoint has %d params, model needs %d", len(params), w.model.ParamCount())
	}
	n := len(w.psConns)
	for i, conn := range w.psConns {
		lo, hi := shardRange(len(params), n, i)
		if err := conn.Call(methodSetParams, setParamsRequest{Params: params[lo:hi]}, nil, rpcTimeout); err != nil {
			return 0, fmt.Errorf("live: restoring shard %d: %w", i, err)
		}
	}
	return meta.Step, nil
}

// EvalAccuracy samples a fresh batch from this worker's dataset and
// scores the current parameters.
func (w *Worker) EvalAccuracy(samples int) (float64, error) {
	params, _, err := w.pullAll()
	if err != nil {
		return 0, err
	}
	w.model.SetParams(params)
	return w.model.Accuracy(w.dataset.Sample(samples)), nil
}
