package gclang

import (
	"fmt"

	"psgc/internal/regions"
)

// Stepper is the surface both abstract machines share: what a run loop
// needs to step a machine, count collector entries, checkpoint it, and
// read its outcome, and what an observer needs to attach to its Event
// hook. *Machine and *EnvMachine implement it over their existing fields.
type Stepper interface {
	PendingCall() (regions.Addr, bool)
	Step() error
	Image() (MachineImage, error)

	// StepCount, IsHalted, Outcome and Memory read the Steps, Halted,
	// Result and Mem fields.
	StepCount() int
	IsHalted() bool
	Outcome() Value
	Memory() regions.Store[Cell]
	// EventHook points at the Event field, so an observer can chain the
	// hook already installed.
	EventHook() *func(StepEvent)
}

func (m *Machine) StepCount() int                 { return m.Steps }
func (m *Machine) IsHalted() bool                 { return m.Halted }
func (m *Machine) Outcome() Value                 { return m.Result }
func (m *Machine) Memory() regions.Store[Cell]    { return m.Mem }
func (m *Machine) EventHook() *func(StepEvent)    { return &m.Event }
func (m *EnvMachine) StepCount() int              { return m.Steps }
func (m *EnvMachine) IsHalted() bool              { return m.Halted }
func (m *EnvMachine) Outcome() Value              { return m.Result }
func (m *EnvMachine) Memory() regions.Store[Cell] { return m.Mem }
func (m *EnvMachine) EventHook() *func(StepEvent) { return &m.Event }

// Run steps m until halt, an error, or the fuel limit, and returns the
// program's result.
func Run(m Stepper, fuel int) (Value, error) {
	for !m.IsHalted() {
		if fuel <= 0 {
			return nil, ErrFuel
		}
		fuel--
		if err := m.Step(); err != nil {
			return nil, err
		}
	}
	return m.Outcome(), nil
}

// RunInt runs m and requires an integer result.
func RunInt(m Stepper, fuel int) (int, error) {
	v, err := Run(m, fuel)
	if err != nil {
		return 0, err
	}
	n, ok := v.(Num)
	if !ok {
		return 0, fmt.Errorf("gclang: halt with non-integer %s", v)
	}
	return n.N, nil
}
