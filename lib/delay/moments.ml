let two_pole_delay ~tech r = Model.sink_delays Model.Two_pole ~tech r
