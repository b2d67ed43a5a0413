package traced

import (
	"fmt"
	"time"

	"adaptivegossip/internal/sim"
)

// simProbes times the simulator's two hot paths on a population the
// size of the workload's: Scheduler.After+Step with one pending event
// per in-flight message, and Network.Send+Step (route, schedule,
// deliver) between attached members. Both return ns per operation.
func simProbes(members []nodeID, fanout int, msg *message) (stepNs, sendDeliverNs float64, err error) {
	const ops = 200_000
	sched := sim.NewScheduler(sim.Epoch)
	nop := func() {}
	for i := 0; i < len(members)*fanout; i++ {
		sched.After(time.Duration(i+1)*time.Millisecond, nop)
	}
	begin := time.Now()
	for i := 0; i < ops; i++ {
		sched.After(time.Second, nop)
		sched.Step()
	}
	stepNs = float64(time.Since(begin).Nanoseconds()) / ops

	sched = sim.NewScheduler(sim.Epoch)
	network, err := sim.NewNetwork(sched, sim.NetworkRNG(1))
	if err != nil {
		return 0, 0, err
	}
	delivered := 0
	for _, id := range members {
		network.Attach(id, func(*message) { delivered++ })
	}
	begin = time.Now()
	for i := 0; i < ops; i++ {
		network.Send(members[i%len(members)], members[(i+1)%len(members)], msg)
		sched.Step()
	}
	sendDeliverNs = float64(time.Since(begin).Nanoseconds()) / ops
	if delivered != ops {
		return 0, 0, fmt.Errorf("sim probe delivered %d of %d messages", delivered, ops)
	}
	return stepNs, sendDeliverNs, nil
}
