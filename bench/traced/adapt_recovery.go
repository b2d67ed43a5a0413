package traced

import "adaptivegossip/internal/recovery"

type recoveryParams = recovery.Params

func recoveryOn(on bool) recoveryParams { return recovery.Params{Enabled: on} }
