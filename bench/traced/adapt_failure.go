package traced

import "adaptivegossip/internal/failure"

type failureParams = failure.Params

func failureOn(on bool, suspicionRounds int) failureParams {
	return failure.Params{Enabled: on, SuspicionTimeoutRounds: suspicionRounds}
}
